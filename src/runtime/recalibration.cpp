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

void RecalibrationLoop::write_homography(common::StateWriter& w,
                                         const vision::Homography& h) const {
  for (double v : h.matrix()) w.f64(v);
}

vision::Homography RecalibrationLoop::read_homography(common::StateReader& r) const {
  std::array<double, 9> m{};
  for (double& v : m) v = r.f64();
  return vision::Homography(m);
}

void RecalibrationLoop::save_state(common::StateWriter& w) const {
  w.u8(static_cast<std::uint8_t>(state_));
  write_homography(w, applied_view_);
  write_homography(w, pending_view_);
  write_homography(w, pending_grid_);
  w.u32(pending_record_.stream);
  w.u64(pending_record_.frame);
  for (double v : pending_record_.image_to_grid) w.f64(v);
  w.f64(pending_record_.residual_rms);
  w.f64(pending_record_.drift_px);
  w.u32(pending_record_.attempts);
  w.u64(countdown_);
  w.u64(completed_.size());
  for (const RecalibrationEntry& e : completed_) {
    w.u32(e.stream);
    w.u64(e.frame);
    for (double v : e.image_to_grid) w.f64(v);
    w.f64(e.residual_rms);
    w.f64(e.drift_px);
    w.u32(e.attempts);
  }
  w.u64(checks_run_);
  w.u64(episodes_);
  w.u64(recalibrations_);
  w.u64(estimates_rejected_);
  w.f64(last_drift_px_);
}

void RecalibrationLoop::load_state(common::StateReader& r) {
  state_ = static_cast<CalibrationState>(r.u8());
  applied_view_ = read_homography(r);
  pending_view_ = read_homography(r);
  pending_grid_ = read_homography(r);
  pending_record_.stream = r.u32();
  pending_record_.frame = r.u64();
  for (double& v : pending_record_.image_to_grid) v = r.f64();
  pending_record_.residual_rms = r.f64();
  pending_record_.drift_px = r.f64();
  pending_record_.attempts = r.u32();
  countdown_ = static_cast<std::size_t>(r.u64());
  // The entry count is untrusted: bound it by the bytes that are left
  // before sizing anything from it.
  constexpr std::size_t kEntryBytes = 2 * sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                                      sizeof(RecalibrationEntry::image_to_grid) +
                                      2 * sizeof(double);
  const std::uint64_t entries = r.u64();
  if (entries > r.remaining() / kEntryBytes) {
    throw common::StateError("recalibration: completed-entry count exceeds the payload");
  }
  completed_.resize(static_cast<std::size_t>(entries));
  for (RecalibrationEntry& e : completed_) {
    e.stream = r.u32();
    e.frame = r.u64();
    for (double& v : e.image_to_grid) v = r.f64();
    e.residual_rms = r.f64();
    e.drift_px = r.f64();
    e.attempts = r.u32();
  }
  checks_run_ = static_cast<std::size_t>(r.u64());
  episodes_ = static_cast<std::size_t>(r.u64());
  recalibrations_ = static_cast<std::size_t>(r.u64());
  estimates_rejected_ = static_cast<std::size_t>(r.u64());
  last_drift_px_ = r.f64();
}

}  // namespace safecross::runtime
