#pragma once
// Online segment collector: steps the traffic simulator, runs the chosen
// video-preprocessing path on every frame, keeps a rolling 32-frame
// window, and cuts labeled segments by the paper's rules:
//   * a TURN segment ends exactly at the keyframe (front wheel on the
//     lane line) — the last 32 frames before and including it;
//   * a NO-TURN segment is emitted for every full 32-frame block during
//     which a subject waits at the stop line.
//
// Two preprocessing paths:
//   * FullVP     — the real pipeline of Fig. 3: render the camera frame,
//     background-subtract (dynamic background + opening morphology), then
//     homography-warp the mask onto the top-down grid. The mask stays a
//     bit-packed vision::BitMask from bg-sub through the warp, and no
//     camera-sized float mask is allocated. Faithful but ~160x slower per
//     frame: perfbench's traced dataset.collector_step_ms (seed 1, 4-vCPU
//     AVX-512 Xeon) reads ~1.3 ms against ~0.008 ms, and the camera
//     render is nearly all of it.
//   * FastTopdown — rasterize the moving vehicles' ground-truth
//     footprints directly onto the grid (the ideal VP output) and inject
//     weather-dependent speckle/dropout emulating what bg-sub noise does
//     to the mask. Used for large training runs.

#include <deque>
#include <functional>

#include "common/rng.h"
#include "dataset/segment.h"
#include "sim/camera.h"
#include "sim/traffic.h"
#include "vision/background_subtraction.h"

namespace safecross::dataset {

enum class PipelineMode { FullVP, FastTopdown };

/// What the camera feed delivered for one frame slot. Fresh is the normal
/// path; the rest model a faulty feed (see runtime::FaultInjector).
enum class FrameStatus {
  Fresh,      // frame delivered intact
  Dropped,    // slot empty: the window gains a temporal gap
  Frozen,     // previous frame duplicated into the slot (stale content)
  Corrupted,  // frame delivered but content untrustworthy (noise/blackout)
};

struct CollectorConfig {
  int frames_per_segment = 32;  // paper: 32-frame segments
  sim::Approach approach = sim::Approach::EastboundLeft;  // which turners to watch
  int grid_w = 36;              // top-down 2-D representation resolution
  int grid_h = 24;
  PipelineMode mode = PipelineMode::FastTopdown;
  // FastTopdown noise emulation (per-cell probabilities). Rain degrades
  // the mask hardest (streak leakage + contrast loss through bg-sub),
  // snow moderately — the paper's accuracy ordering rests on this.
  float speckle_base = 0.002f;  // false-positive cells, daytime
  float speckle_rain = 0.100f;  // ... in rain (streak leakage)
  float speckle_snow = 0.080f;  // ... in snow
  float dropout_rain = 0.45f;   // missed vehicle cells in rain (scaled by distance)
  float dropout_snow = 0.38f;   // missed vehicle cells in snow (scaled by distance)
  float speckle_night = 0.015f; // gain noise leaking through bg-sub at night
  float dropout_night = 0.35f;  // unlit vehicle cells missed at night
  float speckle_fog = 0.008f;
  float dropout_fog = 0.42f;    // fog extinction (distance-scaled hardest)
};

class SegmentCollector {
 public:
  SegmentCollector(sim::TrafficSimulator& sim, const sim::CameraModel& camera,
                   CollectorConfig config, std::uint64_t noise_seed);

  /// Advance the simulator one step and process the new frame. Any
  /// segments completed by this step are appended to segments().
  void step() { step(FrameStatus::Fresh); }

  /// Advance the simulator one step with an explicit frame fate:
  ///   * Fresh     — render/rasterize and append a new frame (as step());
  ///   * Dropped   — the slot is empty: nothing is appended and the window
  ///     is marked gapped until frames_per_segment filled slots rebuild it;
  ///   * Frozen    — the previous frame is duplicated into the slot; the
  ///     window stays full but the duplicate counts as stale;
  ///   * Corrupted — the frame is captured (and run through the hook, which
  ///     typically garbles it) but flagged untrustworthy in the window.
  /// Segments are only ever cut from contiguous windows.
  void step(FrameStatus status);

  /// Optional hook applied to each freshly preprocessed frame before it
  /// enters the window (fault injection: noise bursts, blackouts).
  /// Pass nullptr to remove.
  void set_frame_hook(std::function<void(vision::Image&)> hook) {
    frame_hook_ = std::move(hook);
  }

  /// Wire the geometric fault family in: a non-null pointer is read every
  /// frame as the current ideal->perturbed view homography (typically
  /// runtime::FaultInjector::view_perturbation()), and the preprocessing
  /// paths render/rasterize through it — the camera really moved. Null
  /// (the default) keeps the exact legacy code path, bit-identically.
  void set_view_perturbation(const vision::Homography* view) { view_perturbation_ = view; }

  /// The image->grid homography currently applied by the preprocessing
  /// paths, and the recalibration loop's swap point: replacing it re-aims
  /// the top-down remap without touching the camera's ideal calibration.
  const vision::Homography& image_to_grid() const { return image_to_grid_; }
  void set_image_to_grid(const vision::Homography& h) { image_to_grid_ = h; }

  const std::vector<VideoSegment>& segments() const { return segments_; }
  std::vector<VideoSegment> take_segments();

  /// Number of frames processed so far.
  std::size_t frames_processed() const { return frames_processed_; }

  /// The preprocessed top-down frame produced by the last step().
  const vision::Image& last_frame() const { return window_.back(); }

  /// The rolling window of the most recent preprocessed frames (at most
  /// frames_per_segment of them, oldest first).
  const std::deque<vision::Image>& window() const { return window_; }

  /// True when the window holds frames_per_segment frames captured in
  /// consecutive slots — i.e. no dropped frame hides inside it. A gapped
  /// window must never be classified as if it were contiguous.
  bool window_contiguous() const {
    return window_.size() >= static_cast<std::size_t>(config_.frames_per_segment) &&
           frames_since_gap_ >= static_cast<std::size_t>(config_.frames_per_segment);
  }

  /// Frozen or corrupted frames currently in the window.
  std::size_t stale_in_window() const;

  /// Genuine (fresh) frames currently in the window.
  std::size_t fresh_in_window() const { return window_.size() - stale_in_window(); }

  std::size_t frames_dropped() const { return frames_dropped_; }
  std::size_t frames_frozen() const { return frames_frozen_; }
  std::size_t frames_corrupted() const { return frames_corrupted_; }

  // --- checkpoint serialization ---
  // Captures everything a resumed collector needs to keep producing the
  // same frames and cutting the same segments: noise RNG, background
  // model, the rolling window with its blind/fresh flags, the gap and
  // hold trackers, and the frame-status counters. The referenced
  // simulator and camera are rebuilt by the owner (same config, then
  // sim.load_state). Already-emitted segments_ are deliberately NOT
  // state: they never influence future decisions, and the serving layer
  // accounts for emitted decisions in its own journal.
  void save_state(common::StateWriter& w) const;
  void load_state(common::StateReader& r);

 private:
  vision::Image preprocess_frame();
  void emit(bool turned);

  sim::TrafficSimulator& sim_;
  const sim::CameraModel& camera_;
  CollectorConfig config_;
  safecross::Rng rng_;
  vision::RunningAverageBackground bg_;
  vision::Homography image_to_grid_;
  const vision::Homography* view_perturbation_ = nullptr;

  std::deque<vision::Image> window_;
  std::deque<bool> blind_window_;     // blind-area flag per frame
  std::deque<bool> fresh_window_;     // genuine-frame flag per window slot
  std::function<void(vision::Image&)> frame_hook_;
  std::size_t frames_processed_ = 0;
  std::size_t frames_since_gap_ = 0;  // consecutive slots that got a frame
  std::size_t frames_dropped_ = 0;
  std::size_t frames_frozen_ = 0;
  std::size_t frames_corrupted_ = 0;
  int hold_frames_ = 0;               // consecutive frames the subject held
  std::uint64_t hold_subject_id_ = 0;
  std::vector<VideoSegment> segments_;
};

}  // namespace safecross::dataset
