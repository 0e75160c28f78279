#include "vision/image.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace safecross::vision {

Image::Image(int width, int height, float fill) : width_(width), height_(height) {
  if (width <= 0 || height <= 0) throw std::invalid_argument("Image dimensions must be positive");
  data_.assign(static_cast<std::size_t>(width) * static_cast<std::size_t>(height), fill);
}

float Image::at_clamped(int x, int y, float outside) const {
  if (x < 0 || y < 0 || x >= width_ || y >= height_) return outside;
  return at(x, y);
}

float Image::sample_bilinear(float x, float y) const {
  return sample_bilinear_at(width_, height_, x, y, [this](int px, int py) { return at(px, py); });
}

void Image::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Image Image::absdiff(const Image& a, const Image& b) {
  if (a.width() != b.width() || a.height() != b.height()) {
    throw std::invalid_argument("absdiff: dimension mismatch");
  }
  Image out(a.width(), a.height());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out.data()[i] = std::fabs(a.data()[i] - b.data()[i]);
  }
  return out;
}

Image Image::threshold(float thresh) const {
  Image out(width_, height_);
  for (std::size_t i = 0; i < size(); ++i) {
    out.data()[i] = data_[i] > thresh ? 1.0f : 0.0f;
  }
  return out;
}

std::size_t Image::count_above(float thresh) const {
  std::size_t n = 0;
  for (const float v : data_) {
    if (v > thresh) ++n;
  }
  return n;
}

float Image::mean() const {
  if (data_.empty()) return 0.0f;
  double sum = 0.0;
  for (const float v : data_) sum += v;
  return static_cast<float>(sum / static_cast<double>(data_.size()));
}

Image Image::resized_nearest(int new_width, int new_height) const {
  Image out(new_width, new_height);
  for (int y = 0; y < new_height; ++y) {
    const int sy = std::min(height_ - 1, y * height_ / new_height);
    for (int x = 0; x < new_width; ++x) {
      const int sx = std::min(width_ - 1, x * width_ / new_width);
      out.at(x, y) = at(sx, sy);
    }
  }
  return out;
}

Image Image::resized_area(int new_width, int new_height) const {
  Image out(new_width, new_height);
  for (int y = 0; y < new_height; ++y) {
    const int y0 = y * height_ / new_height;
    const int y1 = std::max(y0 + 1, (y + 1) * height_ / new_height);
    for (int x = 0; x < new_width; ++x) {
      const int x0 = x * width_ / new_width;
      const int x1 = std::max(x0 + 1, (x + 1) * width_ / new_width);
      double sum = 0.0;
      for (int sy = y0; sy < y1; ++sy) {
        for (int sx = x0; sx < x1; ++sx) sum += at(sx, sy);
      }
      out.at(x, y) = static_cast<float>(sum / ((y1 - y0) * (x1 - x0)));
    }
  }
  return out;
}

Image Image::box_blur3() const {
  Image out(width_, height_);
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      float sum = 0.0f;
      int n = 0;
      for (int dy = -1; dy <= 1; ++dy) {
        for (int dx = -1; dx <= 1; ++dx) {
          const int sx = x + dx;
          const int sy = y + dy;
          if (sx < 0 || sy < 0 || sx >= width_ || sy >= height_) continue;
          sum += at(sx, sy);
          ++n;
        }
      }
      out.at(x, y) = sum / static_cast<float>(n);
    }
  }
  return out;
}

std::string Image::to_ascii(int max_cols) const {
  static const char ramp[] = " .:-=+*#%@";
  constexpr int ramp_len = 10;
  if (empty()) return "";
  const int cols = std::min(max_cols, width_);
  // Terminal cells are ~2x taller than wide; halve the row density.
  const int rows = std::max(1, height_ * cols / width_ / 2);
  const Image small = resized_area(cols, rows);
  std::string out;
  out.reserve(static_cast<std::size_t>(rows) * (cols + 1));
  for (int y = 0; y < rows; ++y) {
    for (int x = 0; x < cols; ++x) {
      const float v = std::clamp(small.at(x, y), 0.0f, 1.0f);
      const int idx = std::min(ramp_len - 1, static_cast<int>(v * ramp_len));
      out.push_back(ramp[idx]);
    }
    out.push_back('\n');
  }
  return out;
}

template <class Self, class A>
void Image::persist(Self& self, A& a) {
  a.i32(self.width_);
  a.i32(self.height_);
  if (self.width_ < 0 || self.height_ < 0) throw common::StateError("image: negative dimensions");
  a.raw_array(self.data_,
              static_cast<std::size_t>(self.width_) * static_cast<std::size_t>(self.height_));
}

void Image::save_state(common::StateWriter& w) const { persist(*this, w); }
void Image::load_state(common::StateReader& r) { persist(*this, r); }

}  // namespace safecross::vision
