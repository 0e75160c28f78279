#include "vision/bitmask.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace safecross::vision {

namespace {

// 64 flag bytes -> one word, byte k -> bit k. Each multiply gathers 8
// bytes into its top byte; the partial products never overlap, so no
// carry disturbs them.
std::uint64_t pack_word(const std::uint8_t* flags) {
  static_assert(std::endian::native == std::endian::little, "flag bytes load little-endian");
  std::uint64_t word = 0;
  for (int c = 0; c < 8; ++c) {
    std::uint64_t bytes;
    std::memcpy(&bytes, flags + 8 * c, sizeof bytes);
    word |= ((bytes * 0x0102040810204080ull) >> 56) << (8 * c);
  }
  return word;
}

}  // namespace

void BitMask::reset(int width, int height) {
  if (width < 0 || height < 0) throw std::invalid_argument("BitMask dimensions must be >= 0");
  width_ = width;
  height_ = height;
  words_per_row_ = (width + kWordBits - 1) / kWordBits;
  words_.assign(static_cast<std::size_t>(words_per_row_) * static_cast<std::size_t>(height), 0);
}

void BitMask::pack_row(int y, const std::uint8_t* flags) {
  std::uint64_t* words = row(y);
  const int full = width_ / kWordBits;
  for (int i = 0; i < full; ++i) words[i] = pack_word(flags + i * kWordBits);
  if (full < words_per_row_) {
    std::uint8_t tail[kWordBits] = {};  // the padding past `width` stays clear
    std::copy(flags + full * kWordBits, flags + width_, tail);
    words[full] = pack_word(tail);
  }
}

std::size_t BitMask::count() const {
  std::size_t n = 0;
  for (const std::uint64_t word : words_) n += static_cast<std::size_t>(std::popcount(word));
  return n;
}

float BitMask::sample_bilinear(float x, float y) const {
  return sample_bilinear_at(width_, height_, x, y,
                            [this](int px, int py) { return get(px, py) ? 1.0f : 0.0f; });
}

BitMask BitMask::from_image(const Image& mask) {
  BitMask out(mask.width(), mask.height());
  std::vector<std::uint8_t> flags(static_cast<std::size_t>(mask.width()));
  for (int y = 0; y < mask.height(); ++y) {
    const float* px = mask.data() + static_cast<std::size_t>(y) * mask.width();
    for (int x = 0; x < mask.width(); ++x) flags[x] = px[x] > 0.5f;
    out.pack_row(y, flags.data());
  }
  return out;
}

Image BitMask::to_image() const {
  Image out(width_, height_);
  for (int y = 0; y < height_; ++y) {
    const std::uint64_t* words = row(y);
    float* px = out.data() + static_cast<std::size_t>(y) * width_;
    for (int x = 0; x < width_; ++x) {
      px[x] = (words[x / kWordBits] >> (x % kWordBits)) & 1u ? 1.0f : 0.0f;
    }
  }
  return out;
}

}  // namespace safecross::vision
