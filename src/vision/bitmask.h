#pragma once
// Bit-packed binary mask: the one representation of a foreground mask on
// the FullVP path (background subtraction -> opening -> top-down warp).
//
// Row-major 64-bit words, least significant bit first: pixel (x, y) is
// bit x % 64 of word x / 64 of row y. The bits past `width` in each row's
// last word are always zero, so word-wide AND/OR/shift code reads them as
// background without masking.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "vision/image.h"

namespace safecross::vision {

class BitMask {
 public:
  static constexpr int kWordBits = 64;

  BitMask() = default;
  BitMask(int width, int height) { reset(width, height); }

  int width() const { return width_; }
  int height() const { return height_; }
  int words_per_row() const { return words_per_row_; }

  /// Re-dimension to width x height, all clear. Keeps the storage, so a
  /// mask reused frame after frame allocates once.
  void reset(int width, int height);

  bool get(int x, int y) const { return (row(y)[x / kWordBits] >> (x % kWordBits)) & 1u; }

  std::uint64_t* row(int y) { return words_.data() + static_cast<std::size_t>(y) * words_per_row_; }
  const std::uint64_t* row(int y) const {
    return words_.data() + static_cast<std::size_t>(y) * words_per_row_;
  }

  /// Set row y from width() flag bytes, each 0 or 1 (byte x -> pixel x).
  void pack_row(int y, const std::uint8_t* flags);

  /// The valid bits of a row's last word (all ones when width % 64 == 0).
  std::uint64_t last_word_mask() const {
    const int tail = width_ % kWordBits;
    return tail == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << tail) - 1;
  }

  /// Number of set pixels.
  std::size_t count() const;

  /// Image::sample_bilinear of to_image(), bit for bit, without widening.
  float sample_bilinear(float x, float y) const;

  /// Pack a float mask: a pixel is set where its value is > 0.5f (so NaN
  /// and 0.5 are clear).
  static BitMask from_image(const Image& mask);

  /// Widen to a {0.0f, 1.0f} Image.
  Image to_image() const;

  friend bool operator==(const BitMask&, const BitMask&) = default;

 private:
  int width_ = 0;
  int height_ = 0;
  int words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace safecross::vision
