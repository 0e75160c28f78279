#pragma once
// ShardHost: one simulated camera-serving host in the fleet.
//
// A shard owns its own SafeCross engine — built from the fleet-shared
// ShardSpec, whose seeded model init makes every shard's weights
// bit-identical, which is what makes streams *portable*: a stream's
// verdicts depend only on its own seeded state plus the (identical)
// models, so failover re-placement can move it anywhere without changing
// a single decision.
//
// run_assignment() is one server incarnation: build a StreamServer over
// the assignment's streams (adopting hand-offs when the assignment is a
// failover wave), run it synchronously on the calling thread, and
// publish heartbeats from a sidecar thread for the duration. A crash
// (the fault injector's CrashInjected, or any real exception) destroys
// the incarnation — a dead process keeps no in-memory state; what the
// durable dir holds is what failover gets. The same host can then run a
// later wave: hosts survive their incarnations.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/safecross.h"
#include "fleet/transport.h"
#include "runtime/crash_point.h"
#include "runtime/heartbeat.h"
#include "serving/stream_server.h"

namespace safecross::fleet {

/// The fleet-shared engine recipe. Every shard builds the same models
/// from the same seeds; a fleet is only correct if this is identical
/// across shards (and across the reference run the parity oracle uses).
struct ShardSpec {
  core::SafeCrossConfig engine;
  std::vector<dataset::Weather> weathers = {dataset::Weather::Daytime};
  /// Per-weather model init seed = base + static_cast<uint>(weather),
  /// the same recipe the serving chaos harness uses.
  std::uint64_t model_init_seed_base = 100;
};

/// Server knobs shared by every incarnation a host runs.
struct ShardServingConfig {
  std::size_t frames = 30 * 60;
  bool batched = true;  // batched serving loop vs sequential reference
  serving::BatcherConfig batcher;
  std::size_t queue_capacity = 4;
  double push_timeout_ms = 250.0;
  bool record_traces = true;
  std::size_t snapshot_every_decisions = 16;
  std::size_t keep_snapshots = 2;
  double heartbeat_interval_ms = 4.0;
};

/// One incarnation's worth of work: which streams, resuming from which
/// hand-offs (empty for the primary wave), journaling into which dir.
struct ShardAssignment {
  std::size_t wave = 0;
  std::vector<serving::StreamConfig> streams;
  /// Parallel to `streams` on failover waves (handoffs[i].config is
  /// streams[i]); empty for a fresh primary assignment.
  std::vector<serving::StreamHandoff> handoffs;
  std::filesystem::path durability_dir;  // empty → not durable, no failover
  runtime::CrashInjector* crash = nullptr;  // armed by the fault injector
  /// Artificial per-batch inference delay (gray-failure drill: a 10×
  /// slowdown makes a shard slow-but-alive, never dead). 0 off.
  double decide_delay_ms = 0.0;
};

enum class ShardStatus { Idle = 0, Running = 1, Completed = 2, Crashed = 3 };

const char* shard_status_name(ShardStatus s);

class ShardHost {
 public:
  ShardHost(std::size_t id, const ShardSpec& spec, ShardServingConfig serving);
  ~ShardHost();  // stops the agent and joins any incarnation thread

  ShardHost(const ShardHost&) = delete;
  ShardHost& operator=(const ShardHost&) = delete;

  std::size_t id() const { return id_; }
  const ShardServingConfig& serving() const { return serving_; }
  core::SafeCross& engine() { return *engine_; }

  /// Cross-thread status: Running while an incarnation is on-CPU; the
  /// release store at the transition publishes crashed_at()/crash_what()
  /// to a controller that acquire-loads Crashed.
  ShardStatus status() const {
    return static_cast<ShardStatus>(status_.load(std::memory_order_acquire));
  }
  runtime::HeartbeatChannel& channel() { return channel_; }
  std::chrono::steady_clock::time_point crashed_at() const { return crashed_at_; }
  /// Non-CrashInjected death reason (empty for the simulated kill).
  const std::string& crash_what() const { return crash_what_; }

  /// Run one incarnation synchronously; returns true on clean
  /// completion, false on a crash. See file header.
  bool run_assignment(const ShardAssignment& a);

  // --- fleet agent (transport-driven control plane) ---
  // The agent is the shard-side half of the control plane: a sidecar
  // thread that services the downlink (placement commands, drain
  // requests — deduped by req_id, acked over the uplink), pumps the
  // host's heartbeat ring onto the uplink, executes cooperative drains
  // against the live server, and retransmits DrainComplete until the
  // controller acks. enqueue_local() is the reliable bypass ("console
  // cable") the controller falls back to when the faulty fabric has
  // eaten max_attempts of a command.

  void attach_transport(FleetTransport* transport) { transport_ = transport; }
  void start_agent();
  void stop_agent();
  /// Reliable local delivery into the agent's command queue, bypassing
  /// the fault fabric. Same handler as downlink messages.
  void enqueue_local(FleetMsg msg);

  /// Clear a stale Completed/Crashed left by an earlier incarnation.
  /// The controller calls this *before* sending a PlacementCmd over the
  /// faulty fabric: until the command lands and dispatch_assignment runs,
  /// the old outcome would otherwise be readable as the new one's.
  void reset_status() {
    status_.store(static_cast<int>(ShardStatus::Idle), std::memory_order_release);
  }

  /// Dispatch an assignment onto a host-owned incarnation thread (joins
  /// the previous incarnation first; callers only dispatch to hosts they
  /// believe idle). Resets status to Idle until the new incarnation is
  /// on-CPU, so a stale Completed/Crashed from an earlier incarnation
  /// can never be mistaken for this one's outcome.
  void dispatch_assignment(ShardAssignment a);
  /// Join the current incarnation thread, if any (wave epilogue).
  void wait_idle();

  /// Flip the live (watermark-driven) admission degrade on one of the
  /// current incarnation's streams, by name. Safe from any thread; a
  /// no-op when no incarnation is on-CPU or the name is not here.
  /// Returns whether a stream was flipped.
  bool set_stream_degraded(const std::string& name, bool on);

  /// The exact server config an assignment runs under — also what a
  /// recovery server must be built from, so controller-side recovery can
  /// never drift from what the dead incarnation journaled against.
  serving::StreamServerConfig server_config(const ShardAssignment& a) const;

  /// Completed incarnations, oldest first. Crashed incarnations are not
  /// here — their state lives in the durable dir.
  struct Incarnation {
    std::size_t wave = 0;
    std::vector<std::string> stream_names;
    std::unique_ptr<serving::StreamServer> server;
  };
  const std::vector<Incarnation>& incarnations() const { return incarnations_; }

 private:
  /// One control message plus where it came from (the faulty downlink or
  /// the reliable local queue — acks only go back for the former).
  void handle_msg(const FleetMsg& msg);
  void agent_loop();

  std::size_t id_;
  ShardServingConfig serving_;
  std::unique_ptr<core::SafeCross> engine_;
  runtime::HeartbeatChannel channel_;
  std::atomic<int> status_{static_cast<int>(ShardStatus::Idle)};
  std::chrono::steady_clock::time_point crashed_at_{};
  std::string crash_what_;
  std::vector<Incarnation> incarnations_;
  std::uint64_t incarnations_started_ = 0;  // heartbeat incarnation tag

  // Live-server registry: set once the incarnation's server exists,
  // cleared before a crashed incarnation's server is destroyed, so
  // cross-thread pokes never touch a dying server.
  std::mutex live_mu_;
  serving::StreamServer* live_ = nullptr;
  /// Hand-offs a cooperative drain produced that the agent had not yet
  /// collected when the incarnation ended — swept here (under live_mu_)
  /// so a completed or crashed server never takes collected drains with
  /// it. The agent claims them for its pending drain.
  std::vector<serving::StreamHandoff> orphan_handoffs_;

  // Incarnation thread (dispatch_assignment / wait_idle).
  std::mutex inc_mu_;
  std::thread inc_thread_;

  // Agent state (agent thread only, except the local queue).
  FleetTransport* transport_ = nullptr;
  std::thread agent_thread_;
  std::atomic<bool> agent_stop_{false};
  std::mutex local_mu_;
  std::vector<FleetMsg> local_q_;  // reliable bypass, drained by the agent
  std::unordered_set<std::uint64_t> seen_reqs_;  // command dedupe
  /// In-flight drain: executed against the live server, its hand-offs
  /// retransmitted as DrainComplete until the controller's DrainAck.
  struct PendingDrain {
    std::uint64_t req_id = 0;
    std::vector<std::size_t> streams;  // local indices to hand off
    bool executed = false;   // request_drain issued to the live server
    bool collected = false;  // hand-offs taken, retransmitting
    std::vector<serving::StreamHandoff> handoffs;
    std::chrono::steady_clock::time_point last_send{};
  };
  std::vector<PendingDrain> drains_;
  std::unordered_set<std::uint64_t> acked_drains_;
};

}  // namespace safecross::fleet
