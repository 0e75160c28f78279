#pragma once
// FleetController: the partition-tolerant control plane over S shards.
//
// One run() is a full fleet lifecycle:
//
//   1. place    — seeded deterministic placement (rendezvous or
//                 least-loaded) of K streams onto the S - reserve
//                 placeable shards (reserves stay idle: drain targets);
//   2. admit    — degrade-before-drop admission control stamps
//                 fleet_degraded on the sacrificial streams of every
//                 oversubscribed shard (static, so parity holds);
//   3. serve    — every placed shard gets a PlacementCmd over its
//                 downlink MessageChannel; its agent acks, dispatches
//                 the incarnation onto a host-owned thread, and pumps
//                 heartbeats onto the uplink. Commands are retried per
//                 RpcPolicy and fall back to the shard's reliable local
//                 queue after max_attempts (the "console cable"), so a
//                 run terminates under any fault plan;
//   4. watch    — the controller drains every uplink on a fixed cadence.
//                 Stale/reordered beats are discarded by (incarnation,
//                 seq); fresh beats feed the chosen failure detector:
//                 HardThreshold (HealthMonitor missed-frame escalation)
//                 or Suspicion (phi-accrual — a healed partition teaches
//                 the detector, so gray links stop costing failovers).
//                 Beats breaching the drain watermark accrue toward a
//                 live drain; beats breaching the dynamic-admission
//                 watermark drive per-stream live degrades (hysteresis);
//   5a. drain   — a gray (slow-but-alive) shard is asked to hand its
//                 streams off at its next quiescent point (DrainRequest
//                 → cooperative drain → DrainComplete, retransmitted
//                 until DrainAck). The controller mints a fresh
//                 ownership epoch per moved stream and re-places them on
//                 an idle shard — zero windows shed, no recovery pass;
//   5b. failover— a dead shard's durable dir is recovered
//                 (torn-tail-tolerant), drained, and re-placed onto
//                 survivors under freshly minted epochs. Reconciliation
//                 against ground truth keeps a false death (declared
//                 dead, actually completed) from ever double-serving;
//   6. aggregate — merged per-stream results, shard summaries, failover
//                 and drain events, transport link stats → FleetReport.
//
// Split-brain fencing: every stream carries a controller-minted
// ownership epoch (StreamConfig::owner_epoch, part of the config
// fingerprint). Epochs bump on every re-placement; adopt_stream rejects
// a hand-off whose epoch does not match the assignment's; every
// journaled decision records the epoch it was decided under; and
// epoch_audit() re-reads every granted journal after the run to prove no
// decision was recorded under a stale epoch — at-most-once hand-off even
// when the fabric duplicates or reorders entire hand-off transfers.
//
// Determinism contract: placement, admission, epochs and the kill plan
// are pure functions of the config; stream verdicts are functions of
// per-stream seeded state plus bit-identical per-shard engines; hand-off
// resumes bit-identically (cooperative drains quiesce at a batch
// boundary, and verdicts are batch-composition invariant). Hence the
// fleet parity oracle: every stream's merged decision sequence under ANY
// seeded NetFaultPlan equals the same-config uninterrupted run's, bit
// for bit — only wall-clock observability (detection latency, beat and
// link counts) may differ. Live degradation (dynamic admission) is the
// one wall-clock-reactive knob, and parity runs keep it off.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "fleet/admission.h"
#include "fleet/dynamic_admission.h"
#include "fleet/fault.h"
#include "fleet/placement.h"
#include "fleet/scorecard.h"
#include "fleet/shard.h"
#include "fleet/transport.h"
#include "runtime/health_monitor.h"
#include "runtime/message_channel.h"
#include "runtime/suspicion.h"

namespace safecross::fleet {

/// Which silence-to-death translation the watch loop runs.
enum class DetectorKind : std::uint8_t {
  HardThreshold = 0,  // HealthMonitor: N missed watch frames → dead
  Suspicion = 1,      // phi-accrual: silence scaled to the link's history
};

const char* detector_kind_name(DetectorKind k);

struct FleetConfig {
  std::vector<serving::StreamConfig> streams;  // priorities set by the caller
  std::size_t shards = 2;
  /// Shards excluded from initial placement, held idle as live-drain
  /// targets. Must be < shards.
  std::size_t reserve_shards = 0;

  PlacementConfig placement;
  AdmissionConfig admission;

  ShardSpec shard;             // engine recipe, identical on every shard
  ShardServingConfig serving;  // per-incarnation server knobs

  /// Root for per-shard durable dirs (root/shard-<id>/wave-<w>). Empty →
  /// durability off; fault injection then has no crash points to arm and
  /// failover is impossible.
  std::filesystem::path durability_root;

  // Controller watch cadence and the health machine that turns missed
  // heartbeats into a death verdict. Keep watch_interval_ms comfortably
  // above serving.heartbeat_interval_ms so a healthy shard beats at
  // least once per watch tick.
  double watch_interval_ms = 10.0;
  runtime::HealthConfig shard_health{.degraded_after_missing = 3,
                                     .failsafe_after_missing = 10,
                                     .recover_after_healthy = 5};

  DetectorKind detector = DetectorKind::HardThreshold;
  runtime::SuspicionConfig suspicion;  // used when detector == Suspicion

  // --- gray-failure handling ---
  /// Artificial per-batch inference delay per shard id (gray drill: make
  /// shard s slow-but-alive). Shorter than `shards` → remaining are 0.
  std::vector<double> shard_decide_delay_ms;
  /// Heartbeat latency watermark above which a shard accrues toward a
  /// live drain (0 = drains disabled).
  double drain_latency_watermark_ms = 0.0;
  std::size_t drain_after_breaches = 3;  // consecutive hot beats → drain
  /// Per-shard live degradation (hysteresis watermarks). NOT parity-safe;
  /// chaos parity runs keep it disabled.
  DynamicAdmissionConfig dynamic_admission;

  ShardFaultConfig fault;          // seeded shard-kill plan (chaos)
  runtime::NetFaultPlan net_fault; // seeded control-plane fault plan (chaos)
  runtime::RpcPolicy rpc;          // command retry/backoff discipline
};

/// What the post-run journal walk proved about epoch fencing.
struct EpochAuditReport {
  std::size_t journals_checked = 0;
  std::uint64_t decisions_checked = 0;
  /// Human-readable fencing violations (decision under a stale epoch, a
  /// (stream, seq) decided under two different epochs in one journal...).
  std::vector<std::string> violations;

  bool ok() const { return violations.empty(); }
};

class FleetController {
 public:
  explicit FleetController(FleetConfig config);

  FleetController(const FleetController&) = delete;
  FleetController& operator=(const FleetController&) = delete;

  /// The full lifecycle (see file header). Runs once per controller.
  void run();

  /// Initial stream index → shard id (valid after run()).
  const std::vector<std::size_t>& placement() const { return assignment_; }
  const AdmissionReport& admission() const { return admission_; }
  const FleetReport& report() const { return report_; }
  std::size_t kills_fired() const { return fault_.kills_fired(); }
  const ShardFaultInjector& fault() const { return fault_; }
  ShardFaultInjector& fault() { return fault_; }
  FleetTransport& transport() { return *transport_; }

  /// Current ownership epoch per stream name (valid after run()).
  const std::unordered_map<std::string, std::uint64_t>& epochs() const { return epochs_; }

  /// Walk every journal this run granted an epoch for and verify the
  /// fencing invariant: every journaled decision carries exactly the
  /// epoch its incarnation was granted for that stream. Call after run().
  EpochAuditReport epoch_audit() const;

 private:
  struct Launched {
    std::size_t shard = 0;
    ShardAssignment assignment;
    /// Immutable command payload shared with every (re)send of the
    /// PlacementCmd — retransmits and fabric duplicates copy the pointer,
    /// not the assignment.
    std::shared_ptr<const ShardAssignment> cmd_payload;
    const ShardKill* planned_kill = nullptr;
    bool finished = false;
    bool dead = false;
    std::chrono::steady_clock::time_point declared_at{};
    // unique_ptr: HealthMonitor holds an atomic latch, so it cannot live
    // by value in a movable Launched.
    std::unique_ptr<runtime::HealthMonitor> monitor;
    std::unique_ptr<runtime::SuspicionDetector> suspicion;
    // Placement command rpc state.
    std::uint64_t cmd_req_id = 0;
    bool cmd_acked = false;
    std::size_t cmd_attempts = 0;
    std::chrono::steady_clock::time_point cmd_sent{};
    bool saw_beat = false;  // at least one beat routed to this entry
    // Live-drain rpc state (this entry is the drain *source*).
    bool draining = false;
    std::uint64_t drain_req_id = 0;
    std::size_t drain_target = 0;
    std::size_t drain_attempts = 0;
    bool drain_fellback = false;  // request went over the console cable
    std::chrono::steady_clock::time_point drain_sent{};
    std::chrono::steady_clock::time_point drain_triggered{};
    std::size_t breach_streak = 0;  // consecutive drain-watermark breaches
    // Dynamic admission (live degradation) state.
    std::unique_ptr<DynamicAdmission> dyn;
    std::vector<std::string> dyn_order;    // victim order, precomputed
    std::vector<std::string> dyn_victims;  // currently held degraded
  };

  /// Steps 3–5a for one wave: command, watch, drain, join, reconcile.
  void run_wave(std::vector<Launched>& wave, std::size_t wave_no);
  /// Step 5b: recovery + re-placement of every dead entry; returns the
  /// next wave's launch list (empty when nothing died).
  std::vector<Launched> fail_over(std::vector<Launched>& wave, std::size_t wave_no);
  void aggregate();

  /// Reset the host's stale status and send (or resend) the entry's
  /// PlacementCmd over its downlink.
  void launch(Launched& l);
  void send_placement(Launched& l);
  /// Route one uplink message into the wave (watch loop, by value — the
  /// wave vector may grow while messages are handled).
  void route_uplink(FleetMsg msg, std::vector<Launched>& wave, std::size_t wave_no);
  /// Adopt a DrainComplete: ack, dedupe, mint epochs, launch the target.
  void handle_drain_complete(const FleetMsg& msg, std::vector<Launched>& wave,
                             std::size_t wave_no);
  /// Record the epochs an assignment's journal dir was granted (audit).
  void record_grants(const ShardAssignment& a);
  /// A wave entry serving `a` on `shard`, with its own health monitor
  /// and, as configured, suspicion detector and dynamic admission.
  Launched make_launched(std::size_t shard, ShardAssignment a) const;

  std::filesystem::path wave_dir(std::size_t shard, std::size_t wave_no) const;

  FleetConfig cfg_;
  Placer placer_;
  ShardFaultInjector fault_;
  std::unique_ptr<FleetTransport> transport_;
  std::vector<std::unique_ptr<ShardHost>> hosts_;
  std::vector<std::size_t> assignment_;  // stream index → shard id (initial)
  AdmissionReport admission_;
  /// Per-stream shard history (index parallel to cfg_.streams).
  std::vector<std::vector<std::size_t>> homes_;
  /// Wave number of each stream's final (completed) incarnation.
  std::vector<std::size_t> final_wave_;
  std::vector<runtime::HealthState> last_view_;  // controller's last health view
  /// Per-shard newest (incarnation, seq) seen — the stale-beat filter.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> beat_high_;
  /// Freshest unprocessed beat per shard (routed, pending the tick).
  std::vector<std::optional<runtime::Heartbeat>> fresh_beat_;
  std::unordered_map<std::string, std::uint64_t> epochs_;  // name → current epoch
  /// Journal dir → (name, granted epoch) in local stream order —
  /// DecisionEntry.stream is the local index, so order matters (audit).
  std::map<std::filesystem::path, std::vector<std::pair<std::string, std::uint64_t>>>
      grants_;
  std::unordered_set<std::uint64_t> drains_adopted_;  // DrainComplete dedupe
  std::uint64_t next_req_id_ = 1;
  /// Drain incarnations get wave numbers from here so they can never
  /// collide with failover wave numbering.
  std::size_t drain_wave_next_ = 1000;
  FleetReport report_;
  bool ran_ = false;
};

}  // namespace safecross::fleet
