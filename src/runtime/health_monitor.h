#pragma once
// Watchdog + graceful-degradation state machine for the live warning path.
//
// The pipeline must *fail conservative*, never fail silent: when the frame
// stream stalls, the rolling window is gapped or frozen, a model switch is
// in flight (or died), or the classifier blows its per-decision deadline,
// the service should keep answering — with a conservative "do not turn"
// warning tagged with the reason — rather than crash or trust stale data.
//
// The HealthMonitor consumes per-frame stream events and switching events
// and drives a three-state machine:
//
//     Nominal ──fault──▶ Degraded ──worse──▶ FailSafe
//        ▲                  │ ▲                 │
//        └── healthy streak ┘ └─ healthy streak ┘
//
// Escalation is immediate; de-escalation is one level per sustained
// healthy streak, and a failed model switch latches FailSafe until the
// switcher reports recovery. All thresholds live in HealthConfig.

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/state_io.h"

namespace safecross::runtime {

enum class HealthState { Nominal = 0, Degraded = 1, FailSafe = 2 };

const char* health_state_name(HealthState s);

/// Why a live decision came out the way it did. Model means the active
/// classifier's verdict was delivered; every other value is a conservative
/// fail-safe warning (warn = true) emitted without trusting the model.
enum class DecisionSource {
  Model = 0,
  FailSafeIncompleteWindow,  // rolling window gapped by drops, or short
  FailSafeStaleWindow,       // too many frozen/duplicated frames in window
  FailSafeSwitchInFlight,    // model swap in progress or latched failure
  FailSafeDeadline,          // classifier blew the per-decision deadline
  FailSafeStageDown,         // the stream's producer exhausted its retry budget
  FailSafeMiscalibrated,     // camera drifted past the calibration threshold
  FleetDegraded,             // admission control degraded a low-priority
                             // stream on a hot shard to conservative warns
};

constexpr int kDecisionSourceCount = 8;

const char* decision_source_name(DecisionSource s);

inline bool is_fail_safe(DecisionSource s) { return s != DecisionSource::Model; }

struct HealthConfig {
  int degraded_after_missing = 2;   // consecutive missing frames → Degraded
  int failsafe_after_missing = 8;   // consecutive missing frames → FailSafe
  int recover_after_healthy = 30;   // healthy frames to step down one state
  // Window freshness floor: below this fraction of genuine (non-frozen,
  // non-blacked-out) frames, a full window is still considered stale.
  double min_fresh_fraction = 0.75;
  // Per-decision latency budget in ms; 0 disables the deadline check (the
  // default, so that wall-clock jitter can never perturb offline runs).
  double decision_deadline_ms = 0.0;
  double frame_interval_ms = 1000.0 / 30.0;  // 30 Hz stream
};

class HealthMonitor {
 public:
  explicit HealthMonitor(HealthConfig config = {});

  const HealthConfig& config() const { return config_; }

  // --- frame-stream events (exactly one per frame slot) ---
  void frame_ok();        // fresh frame delivered intact
  void frame_missing();   // slot empty (drop) or content gone (blackout)
  void frame_degraded();  // frame present but untrustworthy (freeze/noise)

  // --- switching events ---
  /// A model swap started; its simulated latency translates into
  /// ceil(delay_ms / frame_interval_ms) frames of planned unavailability.
  void switch_started(double delay_ms);
  /// The swap failed: latch FailSafe until switch_recovered().
  void switch_failed();
  /// A later swap succeeded: release the latch (state recovers via the
  /// normal healthy-streak path).
  void switch_recovered();

  bool switch_in_flight() const { return switch_frames_left_ > 0; }
  bool switch_failure_latched() const { return switch_failure_latched_; }

  // --- calibration events ---
  /// Latch/clear the miscalibration cause: the recalibration loop detected
  /// residual camera drift past its threshold (on) or swapped a fresh
  /// homography in (off). While latched the monitor holds at least
  /// Degraded and decisions gate to conservative warns
  /// (DecisionSource::FailSafeMiscalibrated). Called from the same thread
  /// that drives the frame events — the stream's tick thread — so this is
  /// a plain bool, not an atomic.
  void set_miscalibrated(bool on) {
    miscalibrated_ = on;
    if (on) escalate(HealthState::Degraded);
  }
  bool miscalibrated() const { return miscalibrated_; }

  // --- supervisor latch ---
  /// Pin FailSafe from outside the frame stream: the stream's producer
  /// exhausted its crash-restart budget, so no amount of healthy frames
  /// makes the service trustworthy until an operator (or a rebuilt
  /// server) clears the latch. Thread-safe — the supervisor fires this
  /// from the producer's thread while the deciding thread reads gates;
  /// the state machine itself escalates on the next frame event,
  /// keeping `state_` single-writer.
  void latch_fail_safe() { external_latch_.store(true, std::memory_order_release); }
  void clear_fail_safe_latch() { external_latch_.store(false, std::memory_order_release); }
  bool fail_safe_latched() const { return external_latch_.load(std::memory_order_acquire); }

  /// True when the deadline check is enabled and `elapsed_ms` exceeds it.
  bool deadline_blown(double elapsed_ms) const {
    return config_.decision_deadline_ms > 0.0 && elapsed_ms > config_.decision_deadline_ms;
  }

  /// True when `fresh` out of `total` window frames is below the
  /// configured freshness floor (a window of frozen frames reads stale).
  bool window_stale(std::size_t fresh, std::size_t total) const {
    if (total == 0) return true;
    return static_cast<double>(fresh) <
           config_.min_fresh_fraction * static_cast<double>(total);
  }

  HealthState state() const { return state_; }

  // --- scorecard ---
  std::size_t transitions() const { return transitions_; }
  std::size_t frames_in(HealthState s) const { return frames_in_[static_cast<int>(s)]; }
  int missing_streak() const { return missing_streak_; }

  // --- checkpoint serialization ---
  // The full state machine (including the external supervisor latch), so
  // a restored monitor gates the next decision exactly as the killed one
  // would have. Single-threaded context only — recovery runs before any
  // stage threads exist.
  void save_state(common::StateWriter& w) const;
  void load_state(common::StateReader& r);

 private:
  template <class Self, class A>
  static void persist(Self& self, A& a);

  void escalate(HealthState target);
  void on_frame_event();  // shared per-frame bookkeeping (time passes)

  HealthConfig config_;
  std::atomic<bool> external_latch_{false};
  HealthState state_ = HealthState::Nominal;
  int missing_streak_ = 0;
  int healthy_streak_ = 0;
  int switch_frames_left_ = 0;
  bool switch_failure_latched_ = false;
  bool miscalibrated_ = false;
  std::size_t transitions_ = 0;
  std::size_t frames_in_[3] = {0, 0, 0};
};

}  // namespace safecross::runtime
