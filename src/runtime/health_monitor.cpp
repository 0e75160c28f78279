#include "runtime/health_monitor.h"

#include <cmath>
#include <limits>

namespace safecross::runtime {

const char* health_state_name(HealthState s) {
  switch (s) {
    case HealthState::Nominal: return "nominal";
    case HealthState::Degraded: return "degraded";
    case HealthState::FailSafe: return "fail-safe";
  }
  return "?";
}

const char* decision_source_name(DecisionSource s) {
  switch (s) {
    case DecisionSource::Model: return "model";
    case DecisionSource::FailSafeIncompleteWindow: return "failsafe-incomplete-window";
    case DecisionSource::FailSafeStaleWindow: return "failsafe-stale-window";
    case DecisionSource::FailSafeSwitchInFlight: return "failsafe-switch-in-flight";
    case DecisionSource::FailSafeDeadline: return "failsafe-deadline";
    case DecisionSource::FailSafeStageDown: return "failsafe-stage-down";
    case DecisionSource::FailSafeMiscalibrated: return "failsafe-miscalibrated";
    case DecisionSource::FleetDegraded: return "fleet-degraded";
  }
  return "?";
}

HealthMonitor::HealthMonitor(HealthConfig config) : config_(config) {}

void HealthMonitor::escalate(HealthState target) {
  if (static_cast<int>(target) <= static_cast<int>(state_)) return;
  state_ = target;
  healthy_streak_ = 0;
  ++transitions_;
}

void HealthMonitor::on_frame_event() {
  // The supervisor latch is raised from another thread; the state machine
  // only reacts here, on the frame clock, so state_ stays single-writer.
  if (fail_safe_latched()) escalate(HealthState::FailSafe);
  if (switch_frames_left_ > 0) --switch_frames_left_;
  ++frames_in_[static_cast<int>(state_)];
}

void HealthMonitor::frame_ok() {
  missing_streak_ = 0;
  // Streaks saturate: only reaching the thresholds matters, and a stream
  // that stays nominal for 2^31 frames (~2.3 years at 30 Hz) must not
  // overflow.
  if (healthy_streak_ < std::numeric_limits<int>::max()) ++healthy_streak_;
  // De-escalate one level at a time after a sustained healthy streak; a
  // latched switch failure pins FailSafe regardless of stream health.
  if (healthy_streak_ >= config_.recover_after_healthy && state_ != HealthState::Nominal &&
      !switch_failure_latched_ && !miscalibrated_ && !fail_safe_latched() &&
      switch_frames_left_ == 0) {
    state_ = static_cast<HealthState>(static_cast<int>(state_) - 1);
    healthy_streak_ = 0;
    ++transitions_;
  }
  on_frame_event();
}

void HealthMonitor::frame_missing() {
  if (missing_streak_ < std::numeric_limits<int>::max()) ++missing_streak_;
  healthy_streak_ = 0;
  if (missing_streak_ >= config_.failsafe_after_missing) {
    escalate(HealthState::FailSafe);
  } else if (missing_streak_ >= config_.degraded_after_missing) {
    escalate(HealthState::Degraded);
  }
  on_frame_event();
}

void HealthMonitor::frame_degraded() {
  // Present-but-untrustworthy frames end any healthy streak and are
  // degraded-grade evidence, but never escalate all the way to FailSafe
  // on their own (the stale-window check guards decisions directly).
  missing_streak_ = 0;
  healthy_streak_ = 0;
  escalate(HealthState::Degraded);
  on_frame_event();
}

void HealthMonitor::switch_started(double delay_ms) {
  const double frames = delay_ms / config_.frame_interval_ms;
  switch_frames_left_ = static_cast<int>(std::ceil(frames));
  if (switch_frames_left_ > 0) escalate(HealthState::Degraded);
}

void HealthMonitor::switch_failed() {
  switch_failure_latched_ = true;
  escalate(HealthState::FailSafe);
}

void HealthMonitor::switch_recovered() { switch_failure_latched_ = false; }

template <class Self, class A>
void HealthMonitor::persist(Self& self, A& a) {
  a.boolean(self.external_latch_);
  a.enum_u8(self.state_, HealthState::FailSafe);
  a.i32(self.missing_streak_);
  a.i32(self.healthy_streak_);
  a.i32(self.switch_frames_left_);
  a.boolean(self.switch_failure_latched_);
  a.boolean(self.miscalibrated_);
  a.u64(self.transitions_);
  for (auto& n : self.frames_in_) a.u64(n);
}

void HealthMonitor::save_state(common::StateWriter& w) const { persist(*this, w); }
void HealthMonitor::load_state(common::StateReader& r) { persist(*this, r); }

}  // namespace safecross::runtime
