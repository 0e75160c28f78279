#include "runtime/fault_injector.h"

#include <algorithm>
#include <cmath>

namespace safecross::runtime {

namespace {

// Named-stream salt for the geometric fault RNG. The geometric stream is
// seeded as (seed ^ salt) rather than forked from the frame-fault stream:
// Rng::fork() consumes a draw from the parent, which would shift every
// existing drop/freeze/noise sequence the golden traces pin.
constexpr std::uint64_t kGeometryStreamSalt = 0x6E0FA175D21F7C3BULL;

constexpr double kTwoPi = 6.283185307179586476925286766559;

// Rigid 2-D motion about the image centre as a homography: translate the
// centre to the origin, rotate, translate back plus the offset.
vision::Homography about_centre(double cx, double cy, double dx, double dy, double rot) {
  const double c = std::cos(rot), s = std::sin(rot);
  return vision::Homography({c, -s, cx + dx - c * cx + s * cy,
                             s, c, cy + dy - s * cx - c * cy,
                             0.0, 0.0, 1.0});
}

}  // namespace

const char* frame_fault_name(FrameFault f) {
  switch (f) {
    case FrameFault::None: return "none";
    case FrameFault::Dropped: return "dropped";
    case FrameFault::Frozen: return "frozen";
    case FrameFault::NoiseBurst: return "noise-burst";
    case FrameFault::Blackout: return "blackout";
  }
  return "?";
}

FaultInjector::FaultInjector(FaultPlan plan, std::uint64_t seed)
    : plan_(plan), rng_(seed), geo_rng_(seed ^ kGeometryStreamSalt) {}

void FaultInjector::set_frame_size(int width, int height) {
  frame_width_ = width;
  frame_height_ = height;
}

void FaultInjector::step_geometry() {
  const GeometricFaultPlan& g = plan_.geometry;
  if (!geo_seeded_) {
    const double angle = geo_rng_.uniform(0.0, kTwoPi);
    drift_dir_x_ = std::cos(angle);
    drift_dir_y_ = std::sin(angle);
    drift_rot_sign_ = geo_rng_.bernoulli(0.5) ? 1.0 : -1.0;
    shake_phase_x_ = geo_rng_.uniform(0.0, kTwoPi);
    shake_phase_y_ = geo_rng_.uniform(0.0, kTwoPi);
    geo_seeded_ = true;
  }
  ++geo_frames_;
  if (g.bump_prob > 0.0 && geo_rng_.bernoulli(g.bump_prob)) {
    bump_dx_ += geo_rng_.uniform(-g.bump_max_px, g.bump_max_px);
    bump_dy_ += geo_rng_.uniform(-g.bump_max_px, g.bump_max_px);
    bump_rot_ += geo_rng_.uniform(-g.bump_max_rot, g.bump_max_rot);
    ++bumps_;
  }
  double ramp = 0.0;
  if (geo_frames_ > g.drift_start_frame) {
    ramp = static_cast<double>(std::min(geo_frames_, g.drift_stop_frame) -
                               g.drift_start_frame);
  }
  double dx = g.drift_px_per_frame * ramp * drift_dir_x_ + bump_dx_;
  double dy = g.drift_px_per_frame * ramp * drift_dir_y_ + bump_dy_;
  const double rot = g.drift_rot_per_frame * ramp * drift_rot_sign_ + bump_rot_;
  if (g.shake_amp_px > 0.0 && g.shake_period_frames > 0.0) {
    const double phase = kTwoPi * static_cast<double>(geo_frames_) / g.shake_period_frames;
    dx += g.shake_amp_px * std::sin(phase + shake_phase_x_);
    dy += g.shake_amp_px * std::sin(phase + shake_phase_y_);
  }
  const double cx = (frame_width_ - 1) / 2.0;
  const double cy = (frame_height_ - 1) / 2.0;
  view_ = about_centre(cx, cy, dx, dy, rot);
}

double FaultInjector::perturbation_drift_px() const {
  if (frame_width_ <= 0) return 0.0;
  const double w = frame_width_ - 1, h = frame_height_ - 1;
  const vision::Point2 corners[4] = {{0, 0}, {w, 0}, {0, h}, {w, h}};
  double sum = 0.0;
  for (const vision::Point2& c : corners) {
    const vision::Point2 p = view_.apply(c);
    sum += std::hypot(p.x - c.x, p.y - c.y);
  }
  return sum / 4.0;
}

FrameFault FaultInjector::next_frame_fault() {
  ++frames_seen_;
  if (!plan_.enabled()) {
    current_ = FrameFault::None;
    return current_;
  }
  // The camera keeps moving through blackouts and stream faults, so the
  // geometry advances before the per-frame fate is decided.
  if (geometry_active()) step_geometry();
  if (blackout_left_ > 0) {
    --blackout_left_;
    ++blackout_frames_total_;
    current_ = FrameFault::Blackout;
    return current_;
  }
  // One draw per fault class per frame, first match wins: blackouts are
  // rare interval events, then the per-frame stream faults.
  if (plan_.blackout_prob > 0.0 && rng_.bernoulli(plan_.blackout_prob)) {
    blackout_left_ = plan_.blackout_frames > 0 ? plan_.blackout_frames - 1 : 0;
    ++blackout_frames_total_;
    current_ = FrameFault::Blackout;
    return current_;
  }
  if (plan_.drop_prob > 0.0 && rng_.bernoulli(plan_.drop_prob)) {
    ++frames_dropped_;
    current_ = FrameFault::Dropped;
    return current_;
  }
  if (plan_.freeze_prob > 0.0 && rng_.bernoulli(plan_.freeze_prob)) {
    ++frames_frozen_;
    current_ = FrameFault::Frozen;
    return current_;
  }
  if (plan_.noise_prob > 0.0 && rng_.bernoulli(plan_.noise_prob)) {
    ++noise_bursts_;
    current_ = FrameFault::NoiseBurst;
    return current_;
  }
  current_ = FrameFault::None;
  return current_;
}

void FaultInjector::perturb(vision::Image& frame) {
  switch (current_) {
    case FrameFault::Blackout:
      frame.fill(0.0f);
      break;
    case FrameFault::NoiseBurst:
      for (std::size_t i = 0; i < frame.size(); ++i) {
        if (rng_.bernoulli(plan_.noise_density)) {
          float& cell = frame.data()[i];
          cell = cell > 0.5f ? 0.0f : 1.0f;
        }
      }
      break;
    default:
      break;  // None/Dropped/Frozen have no image-level effect
  }
}

bool FaultInjector::next_switch_fails() {
  if (plan_.switch_failure_prob <= 0.0) return false;
  const bool fails = rng_.bernoulli(plan_.switch_failure_prob);
  if (fails) ++switch_failures_;
  return fails;
}

template <class Self, class A>
void FaultInjector::persist(Self& self, A& a) {
  a.nested(self.rng_);
  a.enum_u8(self.current_, FrameFault::Blackout);
  a.i32(self.blackout_left_);
  a.u64(self.frames_seen_);
  a.u64(self.frames_dropped_);
  a.u64(self.frames_frozen_);
  a.u64(self.noise_bursts_);
  a.u64(self.blackout_frames_total_);
  a.u64(self.switch_failures_);
  a.nested(self.geo_rng_);
  a.i32(self.frame_width_);
  a.i32(self.frame_height_);
  a.boolean(self.geo_seeded_);
  a.f64(self.drift_dir_x_);
  a.f64(self.drift_dir_y_);
  a.f64(self.drift_rot_sign_);
  a.f64(self.shake_phase_x_);
  a.f64(self.shake_phase_y_);
  a.f64(self.bump_dx_);
  a.f64(self.bump_dy_);
  a.f64(self.bump_rot_);
  a.u64(self.geo_frames_);
  a.u64(self.bumps_);
  a.nested(self.view_);
}

void FaultInjector::save_state(common::StateWriter& w) const { persist(*this, w); }
void FaultInjector::load_state(common::StateReader& r) {
  persist(*this, r);
  // The geometry rotates about (size - 1) / 2; set_frame_size takes an
  // image's (non-negative) dimensions.
  if (frame_width_ < 0 || frame_height_ < 0) {
    throw common::StateError("injector: negative frame size");
  }
}

}  // namespace safecross::runtime
