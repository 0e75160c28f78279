#include "vision/background_subtraction.h"

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "vision/morphology.h"

namespace safecross::vision {

namespace {

void check_size(const Image& frame, const Image& background) {
  if (frame.width() != background.width() || frame.height() != background.height()) {
    throw std::invalid_argument("background subtraction: frame size differs from the background");
  }
}

// One pass over the frame behind both subtractors' masks. With kUpdate
// (the dynamic model) each background pixel first takes its running-average
// step; then the pixel is foreground where |F - B| > threshold, packed
// into `mask` a row at a time.
template <bool kUpdate>
void make_mask(const Image& frame, Image& background, const BackgroundSubtractionConfig& config,
               BitMask& mask) {
  const int w = frame.width();
  const float a = config.learning_rate;
  const float threshold = config.threshold;
  mask.reset(w, frame.height());
  std::vector<std::uint8_t> flags(static_cast<std::size_t>(w));
  for (int y = 0; y < frame.height(); ++y) {
    const float* f = frame.data() + static_cast<std::size_t>(y) * w;
    float* b = background.data() + static_cast<std::size_t>(y) * w;
    for (int x = 0; x < w; ++x) {
      if constexpr (kUpdate) b[x] = (1.0f - a) * b[x] + a * f[x];
      flags[x] = std::fabs(f[x] - b[x]) > threshold;
    }
    mask.pack_row(y, flags.data());
  }
}

}  // namespace

RunningAverageBackground::RunningAverageBackground(BackgroundSubtractionConfig config)
    : config_(config) {}

const BitMask& RunningAverageBackground::apply_bits(const Image& frame) {
  if (background_.empty()) {
    background_ = frame;
    frames_seen_ = 1;
    mask_.reset(frame.width(), frame.height());
    return mask_;
  }
  check_size(frame, background_);
  // Update first so stationary objects melt into the background over time
  // ("we do not need information from vehicles that are not moving").
  make_mask<true>(frame, background_, config_, mask_);
  ++frames_seen_;
  if (frames_seen_ <= config_.warmup_frames) {
    mask_.reset(frame.width(), frame.height());
  } else if (config_.apply_opening) {
    opening(mask_, scratch_);
  }
  return mask_;
}

void RunningAverageBackground::reset() {
  background_ = Image();
  frames_seen_ = 0;
}

StaticBackground::StaticBackground(BackgroundSubtractionConfig config) : config_(config) {}

const BitMask& StaticBackground::apply_bits(const Image& frame) {
  if (background_.empty()) {
    background_ = frame;
    frames_seen_ = 1;
    mask_.reset(frame.width(), frame.height());
    return mask_;
  }
  check_size(frame, background_);
  ++frames_seen_;
  if (frames_seen_ <= config_.warmup_frames) {
    // Average the warm-up frames into the frozen background.
    const float w = 1.0f / static_cast<float>(frames_seen_);
    for (std::size_t i = 0; i < background_.size(); ++i) {
      background_.data()[i] = (1.0f - w) * background_.data()[i] + w * frame.data()[i];
    }
    mask_.reset(frame.width(), frame.height());
    return mask_;
  }
  make_mask<false>(frame, background_, config_, mask_);
  if (config_.apply_opening) opening(mask_, scratch_);
  return mask_;
}

void StaticBackground::reset() {
  background_ = Image();
  frames_seen_ = 0;
}

}  // namespace safecross::vision
