#pragma once
// Deterministic fault injection for the live warning pipeline.
//
// SafeCross is a safety-critical roadside service: the interesting failure
// modes are not clean shutdowns but a camera feed that stutters, an encoder
// that repeats frames, a lens that whites out in a storm, and a GPU worker
// whose model swap dies mid-transfer. A seeded FaultInjector perturbs the
// frame stream and the switching infrastructure according to a FaultPlan so
// the robustness bench can *measure* availability, missed-threat rate and
// false-warning rate under controlled fault rates instead of crashing.
//
// Determinism contract: the injector owns its own Rng; the same plan and
// seed always produce the same fault sequence, independent of the rest of
// the pipeline. With the default (all-zero) plan it reports no faults and
// never touches a frame, so a wired-but-idle injector leaves the pipeline
// bit-identical to a build without one.

#include <cstddef>
#include <cstdint>

#include "common/rng.h"
#include "vision/homography.h"
#include "vision/image.h"

namespace safecross::runtime {

/// The fate of one frame slot in the 30 Hz stream.
enum class FrameFault {
  None,        // frame delivered intact
  Dropped,     // frame lost in transit — the slot is empty
  Frozen,      // encoder repeated the previous frame
  NoiseBurst,  // frame delivered but a fraction of cells flipped
  Blackout,    // camera blind (storm/glare/power) — frame is all zeros
};

const char* frame_fault_name(FrameFault f);

/// Geometric (extrinsic) camera faults. Unlike the frame-level faults,
/// these do not damage individual frames — they move the camera, which
/// silently invalidates the calibrated top-down remap and the danger
/// zone. The injector accumulates them into a per-frame perturbation
/// homography (`view_perturbation()`) that maps the *ideal* camera's
/// pixel coordinates to the perturbed camera's, composed about the image
/// centre. All magnitudes are in pixels / radians at the image plane.
struct GeometricFaultPlan {
  // Gradual extrinsic drift: a slow constant-rate translation+rotation
  // ramp in a seeded random direction, active on frames in
  // [drift_start_frame, drift_stop_frame); the accumulated offset is
  // held after the ramp stops (the mount settled, still mis-aimed).
  double drift_px_per_frame = 0.0;
  double drift_rot_per_frame = 0.0;  // radians per frame about the centre
  std::size_t drift_start_frame = 0;
  std::size_t drift_stop_frame = static_cast<std::size_t>(-1);
  // Wind shake: bounded sinusoidal sway with seeded phases; oscillates,
  // never accumulates.
  double shake_amp_px = 0.0;
  double shake_period_frames = 45.0;
  // Bump re-aim: a per-frame probability of a step change that persists
  // (someone or something knocked the mount).
  double bump_prob = 0.0;
  double bump_max_px = 4.0;
  double bump_max_rot = 0.02;

  bool enabled() const {
    return drift_px_per_frame > 0.0 || drift_rot_per_frame > 0.0 ||
           shake_amp_px > 0.0 || bump_prob > 0.0;
  }
};

/// Per-frame fault probabilities plus infrastructure failure rates. All
/// zero by default: a FaultInjector with a default plan is a no-op.
struct FaultPlan {
  double drop_prob = 0.0;     // P(frame lost) per frame
  double freeze_prob = 0.0;   // P(frame duplicated) per frame
  double noise_prob = 0.0;    // P(noise burst) per frame
  float noise_density = 0.25f;  // fraction of cells flipped in a burst
  double blackout_prob = 0.0;   // P(a blackout interval starts) per frame
  int blackout_frames = 30;     // blackout length once started (~1 s)
  double switch_failure_prob = 0.0;  // P(a model switch attempt fails)
  GeometricFaultPlan geometry;       // extrinsic camera faults

  bool enabled() const {
    return drop_prob > 0.0 || freeze_prob > 0.0 || noise_prob > 0.0 ||
           blackout_prob > 0.0 || switch_failure_prob > 0.0 || geometry.enabled();
  }
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, std::uint64_t seed);

  const FaultPlan& plan() const { return plan_; }

  /// Decide the fate of the next frame slot. At most one fault per frame;
  /// an in-progress blackout overrides the per-frame draws until it ends.
  FrameFault next_frame_fault();

  /// The fault most recently returned by next_frame_fault().
  FrameFault current_frame_fault() const { return current_; }

  /// Apply the current fault's image-level effect in place. NoiseBurst
  /// flips a noise_density fraction of cells (binary occupancy stays
  /// binary); Blackout zeroes the frame. Drop/Freeze are stream-level
  /// (the collector handles them) and None leaves the frame untouched.
  void perturb(vision::Image& frame);

  /// Should the pending model-switch attempt fail? serving::StreamContext
  /// draws once per realised scheduled switch. Draws nothing (and returns
  /// false) when switch_failure_prob is 0.
  bool next_switch_fails();

  // --- geometric faults ---
  // Geometric faults draw from their own named RNG stream (seed ^ salt),
  // never from the frame-fault stream: enabling a drift plan must not
  // shift the drop/freeze/noise sequence an existing golden trace pins.

  /// Arm the geometric fault family: the perturbation rotates about the
  /// centre of a width x height image. Until this is called the geometry
  /// is inert and view_perturbation() stays identity even when the plan
  /// has geometric faults.
  void set_frame_size(int width, int height);

  /// True when the plan has geometric faults and set_frame_size was called.
  bool geometry_active() const { return plan_.geometry.enabled() && frame_width_ > 0; }

  /// The current ideal-pixel -> perturbed-pixel homography, advanced once
  /// per next_frame_fault() call while geometry is active. The reference
  /// is stable: callers may hold a pointer for per-frame reads.
  const vision::Homography& view_perturbation() const { return view_; }

  /// Mean image-corner displacement (px) of the current perturbation —
  /// the injector-side ground truth the drift bench sweeps against.
  double perturbation_drift_px() const;

  std::size_t bumps() const { return bumps_; }

  // --- counters (for the bench report) ---
  std::size_t frames_seen() const { return frames_seen_; }
  std::size_t frames_dropped() const { return frames_dropped_; }
  std::size_t frames_frozen() const { return frames_frozen_; }
  std::size_t noise_bursts() const { return noise_bursts_; }
  std::size_t blackout_frames_total() const { return blackout_frames_total_; }
  std::size_t switch_failures() const { return switch_failures_; }

  // --- checkpoint serialization ---
  // RNG stream + blackout countdown + counters, so a restored injector
  // deals the same fault sequence the killed one would have.
  void save_state(common::StateWriter& w) const;
  void load_state(common::StateReader& r);

 private:
  template <class Self, class A>
  static void persist(Self& self, A& a);

  void step_geometry();

  FaultPlan plan_;
  Rng rng_;
  FrameFault current_ = FrameFault::None;
  int blackout_left_ = 0;

  std::size_t frames_seen_ = 0;
  std::size_t frames_dropped_ = 0;
  std::size_t frames_frozen_ = 0;
  std::size_t noise_bursts_ = 0;
  std::size_t blackout_frames_total_ = 0;
  std::size_t switch_failures_ = 0;

  // Geometric fault state. geo_rng_ is the isolated named stream; the
  // drift direction / rotation sign / shake phases are drawn lazily on
  // the first active frame so an unarmed injector consumes nothing.
  Rng geo_rng_;
  int frame_width_ = 0;
  int frame_height_ = 0;
  bool geo_seeded_ = false;
  double drift_dir_x_ = 0.0;
  double drift_dir_y_ = 0.0;
  double drift_rot_sign_ = 1.0;
  double shake_phase_x_ = 0.0;
  double shake_phase_y_ = 0.0;
  double bump_dx_ = 0.0;
  double bump_dy_ = 0.0;
  double bump_rot_ = 0.0;
  std::size_t geo_frames_ = 0;
  std::size_t bumps_ = 0;
  vision::Homography view_;  // identity until geometry advances
};

}  // namespace safecross::runtime
