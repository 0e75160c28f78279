#include "dataset/collector.h"

#include <algorithm>
#include <cmath>

namespace safecross::dataset {

using sim::DriverState;
using vision::Image;

SegmentCollector::SegmentCollector(sim::TrafficSimulator& sim, const sim::CameraModel& camera,
                                   CollectorConfig config, std::uint64_t noise_seed)
    : sim_(sim),
      camera_(camera),
      config_(config),
      rng_(noise_seed),
      image_to_grid_(camera.image_to_grid(config.grid_w, config.grid_h)) {}

Image SegmentCollector::preprocess_frame() {
  if (config_.mode == PipelineMode::FullVP) {
    // Fig. 3 pipeline: camera frame -> dynamic-background subtraction with
    // opening morphology -> top-down warp -> binarize. The foreground mask
    // stays bit-packed from bg-sub through the warp's samples. A geometric
    // fault perturbs the rendered view; the (possibly recalibrated) remap
    // is whatever image_to_grid_ currently holds.
    const Image frame = camera_.render(sim_, rng_, view_perturbation_);
    const vision::BitMask& mask = bg_.apply_bits(frame);
    return image_to_grid_.warp(mask, config_.grid_w, config_.grid_h).threshold(0.5f);
  }

  // FastTopdown: ideal VP output + weather-noise emulation. Under a view
  // perturbation the effective ground->grid mapping is the remap applied
  // to where the perturbed camera actually images each ground point:
  // image_to_grid ∘ view ∘ ground_to_image. Without one, the legacy pure
  // scale rasterizer runs unchanged (bit-identity with geometry off).
  Image grid = view_perturbation_ == nullptr
                   ? camera_.rasterize_topdown(sim_, config_.grid_w, config_.grid_h)
                   : camera_.rasterize_topdown_mapped(
                         sim_, config_.grid_w, config_.grid_h,
                         image_to_grid_ * (*view_perturbation_) * camera_.ground_to_image());
  const auto weather = sim_.weather().weather;
  float speckle = config_.speckle_base;
  float dropout = 0.0f;
  if (weather == Weather::Rain) {
    speckle = config_.speckle_rain;
    dropout = config_.dropout_rain;
  } else if (weather == Weather::Snow) {
    speckle = config_.speckle_snow;
    dropout = config_.dropout_snow;
  } else if (weather == Weather::Night) {
    speckle = config_.speckle_night;
    dropout = config_.dropout_night;
  } else if (weather == Weather::Fog) {
    speckle = config_.speckle_fog;
    dropout = config_.dropout_fog;
  }
  // Visibility falls with distance from the camera (south edge, high y)
  // in rain/snow: far cells — the oncoming threat lane — are dropped with
  // up to ~1.6x the base rate, near cells with ~0.4x.
  for (int y = 0; y < grid.height(); ++y) {
    const float dist_factor =
        0.4f + 1.2f * (1.0f - static_cast<float>(y) / static_cast<float>(grid.height() - 1));
    const float p_drop = std::min(0.9f, dropout * dist_factor);
    for (int x = 0; x < grid.width(); ++x) {
      float& cell = grid.at(x, y);
      if (cell > 0.5f) {
        if (p_drop > 0.0f && rng_.bernoulli(p_drop)) cell = 0.0f;
      } else if (rng_.bernoulli(speckle)) {
        cell = 1.0f;
      }
    }
  }
  return grid;
}

std::size_t SegmentCollector::stale_in_window() const {
  return static_cast<std::size_t>(
      std::count(fresh_window_.begin(), fresh_window_.end(), false));
}

void SegmentCollector::emit(bool turned) {
  // Never cut a training segment across a feed gap: a window that silently
  // skips frames would teach the classifier that vehicles teleport.
  if (!window_contiguous()) return;
  VideoSegment seg;
  seg.frames.assign(window_.begin(), window_.end());
  seg.weather = sim_.weather().weather;
  seg.approach = config_.approach;
  seg.turned = turned;
  // Blind area if a big vehicle blocked the opposite side for most of the
  // segment (the paper's "big car on the opposite side in a segment").
  const std::size_t blind_frames =
      static_cast<std::size_t>(std::count(blind_window_.begin(), blind_window_.end(), true));
  seg.blind_area = blind_frames * 2 >= blind_window_.size();
  seg.danger_truth = sim_.dangerous_to_turn(config_.approach);
  seg.sim_time = sim_.time();
  segments_.push_back(std::move(seg));
}

void SegmentCollector::step(FrameStatus status) {
  sim_.step();
  switch (status) {
    case FrameStatus::Fresh:
    case FrameStatus::Corrupted: {
      Image frame = preprocess_frame();
      if (frame_hook_) frame_hook_(frame);
      window_.push_back(std::move(frame));
      fresh_window_.push_back(status == FrameStatus::Fresh);
      blind_window_.push_back(sim_.blind_area_present(config_.approach));
      ++frames_since_gap_;
      if (status == FrameStatus::Corrupted) ++frames_corrupted_;
      break;
    }
    case FrameStatus::Frozen: {
      // The encoder repeated the last frame: the slot is filled (the
      // window stays temporally aligned) but its content is stale.
      Image dup = window_.empty() ? Image(config_.grid_w, config_.grid_h) : window_.back();
      window_.push_back(std::move(dup));
      fresh_window_.push_back(false);
      blind_window_.push_back(sim_.blind_area_present(config_.approach));
      ++frames_since_gap_;
      ++frames_frozen_;
      break;
    }
    case FrameStatus::Dropped:
      // The slot is empty: the window now hides a temporal gap, so it is
      // not contiguous again until frames_per_segment filled slots pass.
      frames_since_gap_ = 0;
      ++frames_dropped_;
      break;
  }
  while (window_.size() > static_cast<std::size_t>(config_.frames_per_segment)) {
    window_.pop_front();
    blind_window_.pop_front();
    fresh_window_.pop_front();
  }
  ++frames_processed_;

  // Turn segments: keyframe fired this step.
  if (!sim_.turn_keyframes(config_.approach).empty()) {
    emit(/*turned=*/true);
    hold_frames_ = 0;  // the hold (if any) resolved into a turn
  }

  // No-turn segments: subject waiting at the stop line.
  const sim::Vehicle* subject = sim_.subject(config_.approach);
  if (subject != nullptr && subject->state == DriverState::HoldingAtStop) {
    if (subject->id != hold_subject_id_) {
      hold_subject_id_ = subject->id;
      hold_frames_ = 0;
    }
    ++hold_frames_;
    if (hold_frames_ >= config_.frames_per_segment) {
      emit(/*turned=*/false);
      hold_frames_ = 0;
    }
  } else {
    hold_frames_ = 0;
    hold_subject_id_ = 0;
  }
}

std::vector<VideoSegment> SegmentCollector::take_segments() {
  std::vector<VideoSegment> out;
  out.swap(segments_);
  return out;
}

template <class Self, class A>
void SegmentCollector::persist(Self& self, A& a) {
  a.nested(self.rng_);
  a.nested(self.bg_);
  a.seq(self.window_, [](auto& a, auto& frame) { a.nested(frame); });
  a.seq(self.blind_window_, [](auto& a, auto& b) { a.boolean(b); });
  a.seq(self.fresh_window_, [](auto& a, auto& b) { a.boolean(b); });
  a.u64(self.frames_processed_);
  a.u64(self.frames_since_gap_);
  a.u64(self.frames_dropped_);
  a.u64(self.frames_frozen_);
  a.u64(self.frames_corrupted_);
  a.i32(self.hold_frames_);
  a.u64(self.hold_subject_id_);
  // The applied remap: under online recalibration this diverges from the
  // construction-time ideal, and a restored collector must keep warping
  // through the same matrix the killed one had swapped in.
  a.nested(self.image_to_grid_);
}

void SegmentCollector::save_state(common::StateWriter& w) const { persist(*this, w); }

void SegmentCollector::load_state(common::StateReader& r) {
  persist(*this, r);
  const Image& background = bg_.background();
  if (!background.empty() && (background.width() != camera_.config().width ||
                              background.height() != camera_.config().height)) {
    throw common::StateError("collector: background size differs from the camera's");
  }
  // The window and its two flag deques move in lockstep (step() pushes
  // and pops all three together), never exceed one segment, and hold
  // grid-sized frames; a state that breaks any of that is not ours.
  if (window_.size() > static_cast<std::size_t>(config_.frames_per_segment)) {
    throw common::StateError("collector: window longer than frames_per_segment");
  }
  for (const Image& frame : window_) {
    if (frame.width() != config_.grid_w || frame.height() != config_.grid_h) {
      throw common::StateError("collector: window frame is not grid_w x grid_h");
    }
  }
  if (blind_window_.size() != window_.size()) {
    throw common::StateError("collector: blind flags differ from window");
  }
  if (fresh_window_.size() != window_.size()) {
    throw common::StateError("collector: fresh flags differ from window");
  }
  // step() cuts a no-turn segment and restarts the count when a hold
  // reaches one segment.
  if (hold_frames_ < 0 || hold_frames_ >= config_.frames_per_segment) {
    throw common::StateError("collector: hold count outside one segment");
  }
  for (double v : image_to_grid_.matrix()) {
    // A non-finite remap would send the FullVP warp to NaN coordinates.
    if (!std::isfinite(v)) throw common::StateError("collector: non-finite image->grid remap");
  }
}

}  // namespace safecross::dataset
