#pragma once
// One simulated intersection camera stream, packaged for the multi-stream
// server: its own TrafficSimulator, CameraModel, SegmentCollector,
// HealthMonitor, fault plan and model-switch schedule.
//
// A StreamContext is the producer half of the serving split and the one
// way to run a single camera's warning service. tick() advances exactly
// one frame slot (schedule check, fault fate, collector step + health
// event, due check, gate resolution) and, when a decision is due, emits
// a ReadyWindow carrying everything the inference side needs: the
// resolved fail-safe gate, the weather whose model must judge it, the
// ground truth to score against, and (only when the model may run) a
// copy of the 32-frame window. The inference side — the batcher thread
// in batched mode, the same thread in the sequential reference — calls
// apply() with the verdict.
//
// Determinism contract: all stream state (sim, collector noise, faults,
// switch schedule) is seeded and frame-indexed, never wall-clock-driven,
// so a stream replayed through the batched server and through the
// sequential reference produces bit-identical ReadyWindows in the same
// per-stream order — the foundation of the parity and golden-trace
// suites.
//
// Threading: tick() is called only by the stream's producer (or the
// sequential runner); apply() only by the inference side. They touch
// disjoint scorecard fields (tick counts opportunities, apply scores
// verdicts), so the pair is data-race-free without a lock.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/stream_policy.h"
#include "dataset/collector.h"
#include "runtime/fault_injector.h"
#include "runtime/health_monitor.h"
#include "runtime/recalibration.h"
#include "sim/camera.h"
#include "sim/traffic.h"
#include "vision/calibration.h"

namespace safecross::serving {

using dataset::Weather;

/// A scheduled mid-run model switch: from frame `at_frame` (1-based) on,
/// this stream's decisions want the `to` weather's model. `delay_ms` is
/// the stream-visible swap latency: the health watchdog treats
/// ceil(delay_ms / frame_interval_ms) frames as switch-in-flight, gating
/// decisions conservative during the swap. When the stream's fault plan
/// has switch_failure_prob > 0, each realised switch draws once from the
/// injector; a failed swap latches FailSafeSwitchInFlight until a later
/// realised switch succeeds. Frame-indexed and per-stream, so batched
/// and sequential runs see the identical gate sequence.
struct ModelSwitchEvent {
  std::size_t at_frame = 0;
  Weather to = Weather::Daytime;
  double delay_ms = 100.0;
};

struct StreamConfig {
  std::string name = "cam";
  Weather weather = Weather::Daytime;  // sim weather and the initial model
  std::uint64_t sim_seed = 1;
  std::uint64_t collector_seed = 2;
  dataset::CollectorConfig vp;
  int decision_stride = 8;   // frames between decisions while a subject waits
  int warmup_frames = 90;    // no decisions until the background model settles
  runtime::HealthConfig health;
  runtime::FaultPlan faults;            // per-stream frame-fault plan
  std::uint64_t fault_seed = 0xFA0117u;
  // Online self-healing calibration (see runtime/recalibration.h). Off by
  // default: no estimator is built and every frame runs the exact legacy
  // code path. Frame dims are taken from the stream's camera.
  runtime::RecalibrationConfig recalib;
  // Fleet admission control. `priority` is the stream's tier;
  // `fleet_degraded` is stamped by the fleet's AdmissionController when
  // the stream's shard is oversubscribed: every model-gated decision is
  // answered with a conservative warn (DecisionSource::FleetDegraded)
  // and the 32-frame window copy + inference are skipped entirely —
  // degrading compute before any window is dropped. Both fields are part
  // of the decision stream and of config_fingerprint(), and both ride
  // the hand-off config during failover, so a degraded stream stays
  // degraded (and bit-identical) wherever it lands.
  core::StreamPriority priority = core::StreamPriority::Standard;
  bool fleet_degraded = false;
  // Split-brain fencing (DESIGN.md §16). The fleet controller mints a
  // fresh epoch for every (re-)placement of a stream; a StreamServer
  // rejects adopt_stream() for an epoch at or below one it has already
  // seen for the name, and every journaled decision records the epoch it
  // was made under. Part of config_fingerprint() and the hand-off config.
  // 0 = standalone serving (no fleet, fencing inert).
  std::uint64_t owner_epoch = 0;
  std::vector<ModelSwitchEvent> model_schedule;  // ascending at_frame
  // Producer-crash schedule (1-based frame ordinals): the supervised
  // stream worker throws immediately *before* processing these frames.
  // The restarted incarnation resumes at the same frame, so crashes
  // within the retry budget never change a single verdict.
  std::vector<std::size_t> crash_frames;
};

/// A due decision leaving a stream: either a full 32-frame window bound
/// for the batcher (gate == Model) or an already-resolved fail-safe.
struct ReadyWindow {
  std::size_t stream = 0;  // index into the server's stream list
  std::size_t seq = 0;     // per-stream decision ordinal (0-based)
  std::size_t frame = 0;   // 1-based frame ordinal that produced it
  bool danger_truth = false;
  runtime::DecisionSource gate = runtime::DecisionSource::Model;
  Weather model_weather = Weather::Daytime;
  // Switch epoch: increments every time this stream's scheduled model
  // weather actually changes. The batcher keys groups on (weather, epoch)
  // so a batch never straddles a switch even when the stream flips
  // A→B→A — pre- and post-switch windows of the same weather must not
  // co-batch (they may be judged by different cache residencies).
  std::uint32_t epoch = 0;
  std::vector<vision::Image> window;  // populated only when gate == Model
  std::chrono::steady_clock::time_point captured;  // latency budget start
};

/// One scored verdict, recorded in per-stream seq order so traces from
/// the batched run (where weather groups may fire out of arrival order
/// across streams) line up 1:1 with the sequential reference.
struct DecisionRecord {
  std::size_t frame = 0;
  bool danger_truth = false;
  int predicted_class = 0;
  float prob_danger = 1.0f;
  bool warn = true;
  runtime::DecisionSource source = runtime::DecisionSource::Model;
  // Model lineage: which weather's model the decision wanted and the
  // stream's switch epoch at capture time. Part of the bit-identical
  // stream contract (the golden switch-storm trace pins both).
  Weather model_weather = Weather::Daytime;
  std::uint32_t epoch = 0;
};

class StreamContext {
 public:
  explicit StreamContext(StreamConfig config);

  StreamContext(const StreamContext&) = delete;
  StreamContext& operator=(const StreamContext&) = delete;

  const StreamConfig& config() const { return config_; }

  std::size_t frames_run() const { return frame_; }
  std::size_t windows_produced() const { return produced_; }
  Weather model_weather() const { return model_weather_; }
  std::uint32_t switch_epoch() const { return switch_epoch_; }

  /// Advance one frame slot; returns a ReadyWindow when a decision is
  /// due. Producer-side only — never called concurrently with itself.
  std::optional<ReadyWindow> tick();

  /// Score one verdict for one of this stream's windows. Inference-side
  /// only (batcher thread / sequential runner).
  void apply(const ReadyWindow& w, int predicted_class, float prob_danger, bool warn,
             runtime::DecisionSource source);

  core::StreamScorecard& scorecard() { return scorecard_; }
  const core::StreamScorecard& scorecard() const { return scorecard_; }
  runtime::HealthMonitor& health() { return health_; }
  const runtime::HealthMonitor& health() const { return health_; }
  const dataset::SegmentCollector& collector() const { return collector_; }
  /// The stream's simulated intersection (ground truth, sim clock).
  const sim::TrafficSimulator& sim() const { return sim_; }
  const runtime::FaultInjector* injector() const {
    return injector_active_ ? &injector_ : nullptr;
  }

  /// The self-healing calibration loop, or nullptr when recalib.enabled
  /// is false (counters, state, lineage — see runtime/recalibration.h).
  const runtime::RecalibrationLoop* recalibration() const { return recalib_.get(); }

  /// Recalibrations accepted by tick() since the last take, handed across
  /// the producer→consumer boundary for write-ahead journaling (the
  /// journal lives on the consumer thread). Mutex-guarded: tick() appends,
  /// the server's deciding thread drains. `stream` is left for the server
  /// to fill, like ReadyWindow::stream.
  std::vector<runtime::RecalibrationEntry> take_recalibrations();

  /// Per-seq verdict trace (empty unless enabled before the run).
  void set_record_trace(bool on) { record_trace_ = on; }
  const std::vector<DecisionRecord>& trace() const { return trace_; }

  /// Live (runtime-toggled) admission degrade, flipped by the fleet's
  /// watermark-driven DynamicAdmission while the stream is serving.
  /// Unlike config().fleet_degraded it reacts to *measured* load, so it
  /// is wall-clock-coupled and therefore NOT part of the deterministic
  /// stream contract — chaos parity runs keep it off. When set, every
  /// model-gated decision resolves FleetDegraded exactly as the static
  /// flag does.
  void set_live_degraded(bool on) { live_degraded_.store(on, std::memory_order_relaxed); }
  bool live_degraded() const { return live_degraded_.load(std::memory_order_relaxed); }

  // --- checkpoint serialization ---
  // The complete resumable state: sim + collector + health + fault RNG
  // streams, switch-schedule position, frame/seq counters, scorecard and
  // (when enabled) the verdict trace. A StreamContext rebuilt from the
  // same StreamConfig and then load_state()-ed continues tick-for-tick
  // bit-identically to the killed instance. Quiescent points only (no
  // produced-but-unapplied window in flight).
  void save_state(common::StateWriter& w) const;
  void load_state(common::StateReader& r);

 private:
  template <class Self, class A>
  static void persist(Self& self, A& a);

  StreamConfig config_;
  sim::TrafficSimulator sim_;
  sim::CameraModel camera_;
  dataset::SegmentCollector collector_;
  runtime::HealthMonitor health_;
  runtime::FaultInjector injector_;  // no-op when the plan is all-zero
  bool injector_active_ = false;
  std::unique_ptr<vision::CalibrationEstimator> estimator_;
  std::unique_ptr<runtime::RecalibrationLoop> recalib_;
  std::mutex recalib_mu_;  // guards recalib_outbox_ (producer vs consumer)
  std::vector<runtime::RecalibrationEntry> recalib_outbox_;
  Weather model_weather_;
  std::uint32_t switch_epoch_ = 0;  // bumps on every realized weather change
  std::size_t schedule_pos_ = 0;
  std::size_t frame_ = 0;
  std::size_t produced_ = 0;
  int frames_since_decision_ = 0;
  core::StreamScorecard scorecard_;
  std::atomic<bool> live_degraded_{false};
  bool record_trace_ = false;
  std::vector<DecisionRecord> trace_;  // indexed by ReadyWindow::seq
};

}  // namespace safecross::serving
