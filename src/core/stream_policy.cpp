#include "core/stream_policy.h"

namespace safecross::core {

using runtime::DecisionSource;
using runtime::FrameFault;

const char* stream_priority_name(StreamPriority p) {
  switch (p) {
    case StreamPriority::Critical: return "critical";
    case StreamPriority::Standard: return "standard";
    case StreamPriority::BestEffort: return "best-effort";
  }
  return "?";
}

void apply_frame_fault(dataset::SegmentCollector& collector, runtime::HealthMonitor& health,
                       FrameFault fault) {
  switch (fault) {
    case FrameFault::Dropped:
      collector.step(dataset::FrameStatus::Dropped);
      health.frame_missing();
      break;
    case FrameFault::Frozen:
      collector.step(dataset::FrameStatus::Frozen);
      health.frame_degraded();
      break;
    case FrameFault::Blackout:
      collector.step(dataset::FrameStatus::Corrupted);  // the hook zeroed it
      health.frame_missing();  // the slot is filled but its content is gone
      break;
    case FrameFault::NoiseBurst:
      collector.step(dataset::FrameStatus::Corrupted);
      health.frame_degraded();
      break;
    case FrameFault::None:
      collector.step();
      health.frame_ok();
      break;
  }
}

DecisionSource gate_reason(const runtime::HealthMonitor& health,
                           const dataset::SegmentCollector& collector, int frames_per_segment) {
  // Conservative gates, most severe first. Any hit means the model's
  // verdict cannot be trusted right now: warn instead of guessing.
  if (health.fail_safe_latched()) {
    // A supervised worker exhausted its crash-restart budget: nothing
    // downstream of it is trustworthy until the latch clears.
    return DecisionSource::FailSafeStageDown;
  }
  if (health.switch_failure_latched() || health.switch_in_flight()) {
    return DecisionSource::FailSafeSwitchInFlight;
  }
  if (health.miscalibrated()) {
    // The camera moved and the top-down remap no longer lands where the
    // classifier was trained to look: the window may be complete and fresh
    // yet geometrically wrong, so warn until the recalibration loop swaps
    // a corrected remap in.
    return DecisionSource::FailSafeMiscalibrated;
  }
  const bool window_full =
      collector.window().size() >= static_cast<std::size_t>(frames_per_segment);
  if (!window_full || !collector.window_contiguous()) {
    return DecisionSource::FailSafeIncompleteWindow;
  }
  if (health.window_stale(collector.fresh_in_window(), collector.window().size())) {
    return DecisionSource::FailSafeStaleWindow;
  }
  if (health.state() == runtime::HealthState::FailSafe) {
    // Sustained stream faults (e.g. a blackout short enough to slip past
    // the per-window gates) — the watchdog says the feed is not trustworthy.
    return DecisionSource::FailSafeStaleWindow;
  }
  return DecisionSource::Model;
}

void StreamScorecard::score(bool danger_truth, int predicted_class, bool warn,
                            DecisionSource source) {
  ++decisions_;
  if (warn) ++warnings_;
  if (runtime::is_fail_safe(source)) ++fail_safe_decisions_;
  ++by_source_[static_cast<int>(source)];
  const bool said_danger = predicted_class == 0;
  if (said_danger == danger_truth) {
    ++correct_;
  } else if (danger_truth) {
    ++missed_threats_;
  } else {
    ++false_warnings_;
  }
}

template <class Self, class A>
void StreamScorecard::persist(Self& self, A& a) {
  a.u64(self.decisions_);
  a.u64(self.warnings_);
  a.u64(self.correct_);
  a.u64(self.missed_threats_);
  a.u64(self.false_warnings_);
  a.u64(self.fail_safe_decisions_);
  a.u64(self.decision_opportunities_);
  for (auto& n : self.by_source_) a.u64(n);
}

void StreamScorecard::save_state(common::StateWriter& w) const { persist(*this, w); }
void StreamScorecard::load_state(common::StateReader& r) { persist(*this, r); }

}  // namespace safecross::core
