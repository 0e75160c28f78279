#include "vision/morphology.h"

#include <algorithm>
#include <stdexcept>

namespace safecross::vision {

namespace {

constexpr int kBits = BitMask::kWordBits;

enum class Op { Erode, Dilate };

int radius(int kernel) {
  if (kernel < 1 || kernel % 2 == 0) throw std::invalid_argument("kernel must be odd and >= 1");
  return kernel / 2;
}

// Word i of a row of n words, read d pixels to the right: its bit j is
// pixel 64 i + j + d. Pixels past the row read as clear.
std::uint64_t ahead(const std::uint64_t* in, int n, int i, int d) {
  const int q = i + d / kBits;
  const int b = d % kBits;
  const std::uint64_t lo = q < n ? in[q] : 0;
  if (b == 0) return lo;  // a shift by 64 would be undefined
  const std::uint64_t hi = q + 1 < n ? in[q + 1] : 0;
  return (lo >> b) | (hi << (kBits - b));
}

// Word i read d pixels to the left: bit j is pixel 64 i + j - d. Pixels
// before the row read as clear.
std::uint64_t behind(const std::uint64_t* in, int i, int d) {
  const int q = i - d / kBits;
  const int b = d % kBits;
  const std::uint64_t hi = q >= 0 ? in[q] : 0;
  if (b == 0) return hi;
  const std::uint64_t lo = q >= 1 ? in[q - 1] : 0;
  return (hi << b) | (lo >> (kBits - b));
}

// dst row y = AND (erode) or OR (dilate) of src row y's pixels x - r .. x + r.
template <Op op>
void horizontal(const BitMask& src, BitMask& dst, int r) {
  const int n = src.words_per_row();
  if (n == 0) return;
  const std::uint64_t tail = src.last_word_mask();
  for (int y = 0; y < src.height(); ++y) {
    const std::uint64_t* in = src.row(y);
    std::uint64_t* out = dst.row(y);
    for (int i = 0; i < n; ++i) {
      std::uint64_t acc = in[i];
      for (int d = 1; d <= r; ++d) {
        if constexpr (op == Op::Erode) {
          acc &= ahead(in, n, i, d) & behind(in, i, d);
        } else {
          acc |= ahead(in, n, i, d) | behind(in, i, d);
        }
      }
      out[i] = acc;
    }
    // Dilation carries set bits into the padding past `width`.
    out[n - 1] &= tail;
  }
}

// dst row y = AND (erode) or OR (dilate) of src rows y - r .. y + r. Rows
// are contiguous, so "k rows up" is a flat offset of k * words_per_row.
template <Op op>
void vertical(const BitMask& src, BitMask& dst, int r) {
  const std::size_t total = static_cast<std::size_t>(src.words_per_row()) * src.height();
  const std::uint64_t* in = src.row(0);
  std::uint64_t* out = dst.row(0);
  std::copy(in, in + total, out);
  for (int k = 1; k <= r; ++k) {
    const std::size_t off = std::min(total, static_cast<std::size_t>(k) * src.words_per_row());
    if constexpr (op == Op::Erode) {
      // The kernel reaches outside for the first and last k rows.
      std::fill(out, out + off, std::uint64_t{0});
      std::fill(out + (total - off), out + total, std::uint64_t{0});
      for (std::size_t j = off; j < total - off; ++j) out[j] &= in[j - off] & in[j + off];
    } else {
      for (std::size_t j = off; j < total; ++j) out[j] |= in[j - off];
      for (std::size_t j = 0; j + off < total; ++j) out[j] |= in[j + off];
    }
  }
}

template <Op op>
void morph(BitMask& mask, BitMask& scratch, int kernel) {
  const int r = radius(kernel);
  if (r == 0) return;
  scratch.reset(mask.width(), mask.height());
  horizontal<op>(mask, scratch, r);
  vertical<op>(scratch, mask, r);
}

Image widened(const Image& mask, int kernel, void (*op)(BitMask&, BitMask&, int)) {
  BitMask bits = BitMask::from_image(mask);
  BitMask scratch;
  op(bits, scratch, kernel);
  return bits.to_image();
}

}  // namespace

void erode(BitMask& mask, BitMask& scratch, int kernel) { morph<Op::Erode>(mask, scratch, kernel); }

void dilate(BitMask& mask, BitMask& scratch, int kernel) { morph<Op::Dilate>(mask, scratch, kernel); }

void opening(BitMask& mask, BitMask& scratch, int kernel) {
  erode(mask, scratch, kernel);
  dilate(mask, scratch, kernel);
}

void closing(BitMask& mask, BitMask& scratch, int kernel) {
  dilate(mask, scratch, kernel);
  erode(mask, scratch, kernel);
}

Image erode(const Image& mask, int kernel) { return widened(mask, kernel, &erode); }

Image dilate(const Image& mask, int kernel) { return widened(mask, kernel, &dilate); }

Image opening(const Image& mask, int kernel) { return widened(mask, kernel, &opening); }

Image closing(const Image& mask, int kernel) { return widened(mask, kernel, &closing); }

}  // namespace safecross::vision
