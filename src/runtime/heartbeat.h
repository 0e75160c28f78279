#pragma once
// Per-shard health channel for the fleet layer.
//
// Each shard host publishes a small Heartbeat record on a fixed cadence
// while its serving run is on-CPU; the fleet controller drains every
// shard's channel on its own watch cadence and feeds the result into a
// per-shard HealthMonitor (fresh beat → frame_ok, silent interval →
// frame_missing). Death is therefore *inferred from silence* through the
// existing Nominal→Degraded→FailSafe state machine, not signalled — a
// crashed shard cannot be relied on to say goodbye.
//
// Both directions are wait-free with respect to the other side:
//   * publish() uses BoundedQueue::try_push and, when the controller has
//     fallen behind and the channel is full, evicts the oldest beat via
//     push_drop_oldest — the freshest beat is the only one that matters
//     for liveness, and a wedged controller must never stall a shard;
//   * the controller drains with pop(0ms) — it must never block on a
//     sick shard's queue.
//
// Close semantics (pinned by test_heartbeat_close.cpp): close() is a
// *publisher-side* seal. Beats already buffered at close survive and
// remain drainable — the controller's last look at a finished shard must
// see the final beats, not an empty channel — while publish() after
// close is a silent no-op: it returns false, buffers nothing, and counts
// nothing (neither beats_published() nor beats_evicted() moves). A late
// beat from a shard's dying breath must not masquerade as an eviction.
//
// Heartbeats are observability-only: nothing decision-bearing flows
// through this channel, so wall-clock jitter here can never perturb the
// deterministic verdict streams.

#include <cstddef>
#include <cstdint>
#include <optional>

#include "runtime/bounded_queue.h"

namespace safecross::runtime {

struct Heartbeat {
  std::size_t shard = 0;            // publishing shard's index
  std::uint64_t incarnation = 0;    // host-monotonic incarnation ordinal
  std::uint64_t seq = 0;            // beat ordinal, monotonic per incarnation
  std::uint64_t decisions = 0;      // decisions applied so far (progress)
  std::size_t queue_depth = 0;      // inflight windows across stream queues
  double latency_watermark_ms = 0;  // max capture→verdict latency seen
};

class HeartbeatChannel {
 public:
  explicit HeartbeatChannel(std::size_t capacity = 8) : q_(capacity) {}

  /// Shard side. Never blocks: try_push first, evict-oldest when the
  /// controller has fallen behind. Returns false when a stale beat was
  /// evicted or the channel is closed — purely informational. After
  /// close() this is a pure no-op: nothing buffered, nothing counted.
  bool publish(Heartbeat hb) {
    if (q_.closed()) return false;
    if (q_.try_push(hb)) return true;
    q_.push_drop_oldest(hb);
    return false;
  }

  /// Controller side: non-blocking single take, oldest first.
  std::optional<Heartbeat> take() { return q_.pop(std::chrono::milliseconds(0)); }

  /// Controller side: drain everything queued and return only the newest
  /// beat (nullopt when the shard was silent since the last drain).
  std::optional<Heartbeat> drain_latest() {
    std::optional<Heartbeat> latest;
    while (auto hb = take()) latest = hb;
    return latest;
  }

  /// Seal the publisher side. Buffered beats stay drainable via take().
  void close() { q_.close(); }
  bool closed() const { return q_.closed(); }
  std::size_t beats_published() const { return q_.pushed(); }
  std::size_t beats_evicted() const { return q_.shed(); }

 private:
  BoundedQueue<Heartbeat> q_;
};

}  // namespace safecross::runtime
