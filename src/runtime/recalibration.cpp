#include "runtime/recalibration.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace safecross::runtime {

const char* calibration_state_name(CalibrationState s) {
  switch (s) {
    case CalibrationState::Calibrated: return "calibrated";
    case CalibrationState::Miscalibrated: return "miscalibrated";
    case CalibrationState::Recalibrating: return "recalibrating";
  }
  return "?";
}

double view_drift_px(const vision::Homography& a, const vision::Homography& b, int width,
                     int height) {
  const double w = width - 1, h = height - 1;
  const vision::Point2 corners[4] = {{0, 0}, {w, 0}, {0, h}, {w, h}};
  double sum = 0.0;
  for (const vision::Point2& c : corners) {
    const vision::Point2 pa = a.apply(c);
    const vision::Point2 pb = b.apply(c);
    sum += std::hypot(pa.x - pb.x, pa.y - pb.y);
  }
  return sum / 4.0;
}

RecalibrationLoop::RecalibrationLoop(RecalibrationConfig config,
                                     vision::Homography ideal_image_to_grid,
                                     HealthMonitor* health, EstimateFn estimate, ApplyFn apply)
    : config_(std::move(config)),
      ideal_grid_(ideal_image_to_grid),
      health_(health),
      estimate_(std::move(estimate)),
      apply_(std::move(apply)) {}

bool RecalibrationLoop::start_solve(const vision::CalibrationEstimate& est,
                                    std::uint32_t attempts) {
  vision::Homography view_inv;
  try {
    view_inv = est.view.inverse();
  } catch (const std::exception&) {
    ++estimates_rejected_;
    return false;  // stay Miscalibrated; retry at the next check
  }
  pending_view_ = est.view;
  // Corrected remap: send a live pixel back to its ideal position first,
  // then through the calibrated image->grid map.
  pending_grid_ = ideal_grid_ * view_inv;
  pending_record_ = RecalibrationEntry{};
  pending_record_.residual_rms = est.residual_rms;
  pending_record_.drift_px = last_drift_px_;
  pending_record_.attempts = attempts;
  countdown_ = std::max<std::size_t>(1, config_.solve_latency_frames);
  state_ = CalibrationState::Recalibrating;
  return true;
}

void RecalibrationLoop::on_frame(std::uint64_t frame) {
  if (!config_.enabled) return;
  if (state_ == CalibrationState::Recalibrating) {
    --countdown_;
    if (countdown_ > 0) return;
    // Solve landed: atomically swap the corrected calibration in and
    // release the conservative-warn latch.
    applied_view_ = pending_view_;
    apply_(pending_grid_);
    health_->set_miscalibrated(false);
    state_ = CalibrationState::Calibrated;
    pending_record_.frame = frame;
    pending_record_.image_to_grid = pending_grid_.matrix();
    completed_.push_back(pending_record_);
    ++recalibrations_;
    return;
  }
  if (config_.check_every_frames == 0 || frame % config_.check_every_frames != 0) return;
  ++checks_run_;

  if (state_ == CalibrationState::Calibrated) {
    // Drift check: a single estimate attempt — an occasional failed check
    // on a healthy stream is not evidence of miscalibration.
    const vision::CalibrationEstimate est = estimate_(applied_view_);
    if (!est.ok) {
      ++estimates_rejected_;
      return;
    }
    last_drift_px_ =
        view_drift_px(est.view, applied_view_, config_.frame_width, config_.frame_height);
    if (last_drift_px_ <= config_.drift_threshold_px) return;
    ++episodes_;
    health_->set_miscalibrated(true);
    state_ = CalibrationState::Miscalibrated;
    // The detecting estimate doubles as the first solve candidate.
    start_solve(est, 1);
    return;
  }

  // Miscalibrated: the previous candidate was rejected; retry the solve
  // under the backoff budget. The sleep hook is a no-op so the retries
  // stay frame-clocked (deterministic), matching the rest of the runtime.
  vision::CalibrationEstimate est;
  const RetryResult result = retry_with_backoff(
      config_.backoff, frame,
      [&] {
        est = estimate_(applied_view_);
        return est.ok;
      },
      [](double) {});
  if (!result.ok) {
    ++estimates_rejected_;
    return;  // conservative warns persist until a solve is accepted
  }
  last_drift_px_ =
      view_drift_px(est.view, applied_view_, config_.frame_width, config_.frame_height);
  start_solve(est, static_cast<std::uint32_t>(result.attempts));
}

std::vector<RecalibrationEntry> RecalibrationLoop::take_completed() {
  std::vector<RecalibrationEntry> out;
  out.swap(completed_);
  return out;
}

template <class Self, class A>
void RecalibrationLoop::persist(Self& self, A& a) {
  a.enum_u8(self.state_, CalibrationState::Recalibrating);
  a.nested(self.applied_view_);
  a.nested(self.pending_view_);
  a.nested(self.pending_grid_);
  RecalibrationEntry::persist(self.pending_record_, a);
  a.u64(self.countdown_);
  a.seq(self.completed_, [](auto& a, auto& e) { RecalibrationEntry::persist(e, a); });
  a.u64(self.checks_run_);
  a.u64(self.episodes_);
  a.u64(self.recalibrations_);
  a.u64(self.estimates_rejected_);
  a.f64(self.last_drift_px_);
}

void RecalibrationLoop::save_state(common::StateWriter& w) const { persist(*this, w); }
void RecalibrationLoop::load_state(common::StateReader& r) { persist(*this, r); }

}  // namespace safecross::runtime
