#pragma once
// Grayscale float image. The whole VP pipeline (Fig. 3 of the paper)
// operates on single-channel images: raw camera luminance in, binary
// foreground masks and top-down occupancy maps out.
//
// Pixel values are conventionally in [0, 1]; binary masks use {0, 1}.

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/state_io.h"

namespace safecross::vision {

/// Bilinear sample of a width x height grid at fractional (x, y), clamped
/// to the border; `at(x, y)` reads one pixel as a float. Image and BitMask
/// both sample through this one expression, so a packed mask samples to
/// exactly the floats its widened Image does.
template <typename At>
float sample_bilinear_at(int width, int height, float x, float y, const At& at) {
  x = std::clamp(x, 0.0f, static_cast<float>(width - 1));
  y = std::clamp(y, 0.0f, static_cast<float>(height - 1));
  const int x0 = static_cast<int>(x);
  const int y0 = static_cast<int>(y);
  const int x1 = std::min(x0 + 1, width - 1);
  const int y1 = std::min(y0 + 1, height - 1);
  const float fx = x - static_cast<float>(x0);
  const float fy = y - static_cast<float>(y0);
  const float top = at(x0, y0) * (1 - fx) + at(x1, y0) * fx;
  const float bot = at(x0, y1) * (1 - fx) + at(x1, y1) * fx;
  return top * (1 - fy) + bot * fy;
}

class Image {
 public:
  Image() = default;
  Image(int width, int height, float fill = 0.0f);

  int width() const { return width_; }
  int height() const { return height_; }
  bool empty() const { return data_.empty(); }
  std::size_t size() const { return data_.size(); }

  float& at(int x, int y) { return data_[static_cast<std::size_t>(y) * width_ + x]; }
  float at(int x, int y) const { return data_[static_cast<std::size_t>(y) * width_ + x]; }

  /// Bounds-checked read; returns `outside` for out-of-range coordinates.
  float at_clamped(int x, int y, float outside = 0.0f) const;

  /// Bilinear sample at fractional coordinates (clamped to the border).
  float sample_bilinear(float x, float y) const;

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void fill(float v);

  /// Elementwise |a - b|. Images must have identical dimensions.
  static Image absdiff(const Image& a, const Image& b);

  /// Binary mask: 1 where pixel > threshold, else 0.
  Image threshold(float thresh) const;

  /// Count of pixels strictly greater than `thresh`.
  std::size_t count_above(float thresh) const;

  /// Mean pixel value (0 for an empty image).
  float mean() const;

  /// Nearest-neighbour resize.
  Image resized_nearest(int new_width, int new_height) const;

  /// Area-averaging downscale (used to shrink camera frames to DNN input).
  Image resized_area(int new_width, int new_height) const;

  /// 3x3 box blur (border pixels use the available neighbourhood).
  Image box_blur3() const;

  /// Multi-line ASCII rendering (" .:-=+*#%@" ramp), one row per scanline,
  /// downsampled to at most `max_cols` columns. For examples/diagnostics.
  std::string to_ascii(int max_cols = 96) const;

  /// Checkpoint serialization (dims + raw pixels). load_state throws
  /// common::StateError on implausible dimensions or short input.
  void save_state(common::StateWriter& w) const;
  void load_state(common::StateReader& r);

 private:
  int width_ = 0;
  int height_ = 0;
  std::vector<float> data_;
};

}  // namespace safecross::vision
