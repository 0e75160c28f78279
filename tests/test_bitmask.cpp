// BitMask and the packed morphology: the packed erode/dilate/opening/
// closing against the per-pixel float scan of tests/morphology_reference,
// at every width from 1 to 200 (so every width mod 64 and every word
// boundary), and the packed mask's bilinear samples and warp against its
// widened Image's.

#include "vision/bitmask.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.h"
#include "morphology_reference.h"
#include "vision/homography.h"
#include "vision/morphology.h"

namespace safecross::vision {
namespace {

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();

// A float mask whose set pixels (value > 0.5f) occur with probability
// p_set, drawn from values that straddle the packing rule: 0.5 itself,
// NaN, the infinities, negative zero and out-of-range magnitudes.
Image random_mask(int w, int h, double p_set, Rng& rng) {
  static const float kSet[] = {1.0f, 0.75f, 2.0f, kInf, 0.50001f};
  static const float kClear[] = {0.0f, 0.5f, kNaN, -kInf, -1.0f, 0.25f, -0.0f};
  Image img(w, h);
  for (std::size_t i = 0; i < img.size(); ++i) {
    img.data()[i] = rng.bernoulli(p_set) ? kSet[rng.uniform_int(std::uint64_t{5})]
                                         : kClear[rng.uniform_int(std::uint64_t{7})];
  }
  return img;
}

bool same_pixels(const Image& a, const Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool padding_clear(const BitMask& m) {
  for (int y = 0; y < m.height(); ++y) {
    if (m.words_per_row() > 0 && (m.row(y)[m.words_per_row() - 1] & ~m.last_word_mask()) != 0) {
      return false;
    }
  }
  return true;
}

struct MorphOp {
  const char* name;
  Image (*reference)(const Image&, int);
  Image (*adapter)(const Image&, int);
  void (*packed)(BitMask&, BitMask&, int);
};

const MorphOp kOps[] = {
    {"erode", &testing::reference_erode, &erode, &erode},
    {"dilate", &testing::reference_dilate, &dilate, &dilate},
    {"opening", &testing::reference_opening, &opening, &opening},
    {"closing", &testing::reference_closing, &closing, &closing},
};

// Every op on one mask: the packed op on bits, and the float adapter, must
// both equal the reference scan; the packed result keeps its padding clear.
void expect_matches_reference(const Image& in, int kernel, BitMask& scratch) {
  for (const MorphOp& op : kOps) {
    const Image want = op.reference(in, kernel);
    BitMask bits = BitMask::from_image(in);
    op.packed(bits, scratch, kernel);
    ASSERT_TRUE(bits == BitMask::from_image(want) && padding_clear(bits))
        << op.name << " packed, " << in.width() << "x" << in.height() << " kernel " << kernel;
    ASSERT_TRUE(same_pixels(op.adapter(in, kernel), want))
        << op.name << " adapter, " << in.width() << "x" << in.height() << " kernel " << kernel;
  }
}

TEST(BitMask, PacksAboveHalfAndKeepsPaddingClear) {
  Image img(70, 2, 1.0f);
  img.at(3, 0) = 0.5f;
  img.at(4, 0) = kNaN;
  img.at(5, 0) = kInf;
  img.at(6, 0) = -kInf;
  const BitMask bits = BitMask::from_image(img);
  EXPECT_EQ(bits.words_per_row(), 2);
  EXPECT_FALSE(bits.get(3, 0));
  EXPECT_FALSE(bits.get(4, 0));
  EXPECT_TRUE(bits.get(5, 0));
  EXPECT_FALSE(bits.get(6, 0));
  EXPECT_EQ(bits.count(), 140u - 3u);
  EXPECT_EQ(bits.row(1)[1], (std::uint64_t{1} << 6) - 1);  // 70 - 64 bits, no padding
  EXPECT_TRUE(same_pixels(bits.to_image(), img.threshold(0.5f)));
}

TEST(BitMask, ResetClearsAndRedimensions) {
  Image img(130, 3, 0.0f);
  img.at(129, 2) = 1.0f;
  img.at(64, 1) = 1.0f;
  BitMask m = BitMask::from_image(img);
  EXPECT_TRUE(m.get(129, 2));
  EXPECT_TRUE(m.get(64, 1));
  EXPECT_FALSE(m.get(63, 1));
  EXPECT_EQ(m.count(), 2u);
  EXPECT_EQ(m.words_per_row(), 3);
  m.reset(5, 5);
  EXPECT_EQ(m.count(), 0u);
  EXPECT_EQ(m.words_per_row(), 1);
  EXPECT_THROW(BitMask(-1, 2), std::invalid_argument);
}

TEST(BitMaskMorphology, MatchesReferenceScanAtEveryWidth) {
  Rng rng(2024);
  BitMask scratch;  // reused across every size, as the subtractors reuse theirs
  for (const int height : {1, 2, 9}) {
    for (int width = 1; width <= 200; ++width) {
      for (const int kernel : {1, 3, 5}) {
        const double p_set = (width + height + kernel) % 3 == 0 ? 0.3 : 0.85;
        expect_matches_reference(random_mask(width, height, p_set, rng), kernel, scratch);
      }
    }
  }
}

TEST(BitMaskMorphology, MatchesReferenceScanOnTallerMasks) {
  Rng rng(2025);
  BitMask scratch;
  for (const int width : {1, 7, 63, 64, 65, 127, 128, 129, 200}) {
    for (const int kernel : {3, 5}) {
      for (const double p_set : {0.1, 0.6, 0.95}) {
        expect_matches_reference(random_mask(width, 40, p_set, rng), kernel, scratch);
      }
    }
  }
}

// Kernel 131 shifts by up to 65 bits: whole-word moves plus a remainder,
// at the widths where those cross one, two or three word boundaries.
TEST(BitMaskMorphology, MatchesReferenceScanWithMultiWordKernel) {
  Rng rng(2026);
  BitMask scratch;
  for (const int height : {1, 3}) {
    for (const int width :
         {1, 2, 63, 64, 65, 66, 127, 128, 129, 130, 131, 132, 191, 192, 193, 200}) {
      for (const double p_set : {0.02, 0.9}) {
        expect_matches_reference(random_mask(width, height, p_set, rng), 131, scratch);
      }
    }
  }
  // A solid block larger than the kernel: erosion keeps exactly the
  // pixels whose 131 x 131 neighbourhood lies inside it, and opening
  // restores the block.
  Image block(140, 133, 0.0f);
  for (int y = 0; y < 133; ++y) {
    for (int x = 3; x < 137; ++x) block.at(x, y) = 1.0f;
  }
  BitMask bits = BitMask::from_image(block);
  erode(bits, scratch, 131);
  EXPECT_EQ(bits.count(), 4u * 3u);  // x in [68, 72), y in [65, 68)
  EXPECT_TRUE(bits.get(68, 65) && bits.get(71, 67));
  dilate(bits, scratch, 131);
  EXPECT_TRUE(bits == BitMask::from_image(block));
}

TEST(BitMaskMorphology, RejectsEvenOrNonPositiveKernel) {
  BitMask m(8, 8);
  BitMask scratch;
  EXPECT_THROW(erode(m, scratch, 2), std::invalid_argument);
  EXPECT_THROW(dilate(m, scratch, 0), std::invalid_argument);
  EXPECT_THROW(opening(m, scratch, -3), std::invalid_argument);
}

TEST(BitMask, SamplesLikeItsWidenedImage) {
  Rng rng(7);
  for (const int width : {1, 2, 63, 64, 65, 130}) {
    for (const int height : {1, 2, 17}) {
      const BitMask bits = BitMask::from_image(random_mask(width, height, 0.5, rng));
      const Image widened = bits.to_image();
      for (int i = 0; i < 400; ++i) {
        const float x = static_cast<float>(rng.uniform(-2.0, width + 2.0));
        const float y = static_cast<float>(rng.uniform(-2.0, height + 2.0));
        const float got = bits.sample_bilinear(x, y);
        const float want = widened.sample_bilinear(x, y);
        ASSERT_EQ(std::memcmp(&got, &want, sizeof(float)), 0)
            << width << "x" << height << " at (" << x << ", " << y << ")";
      }
    }
  }
}

TEST(BitMask, WarpMatchesWarpOfWidenedImage) {
  Rng rng(8);
  for (int trial = 0; trial < 40; ++trial) {
    const int width = rng.uniform_int(1, 300);
    const int height = rng.uniform_int(1, 160);
    const BitMask bits = BitMask::from_image(random_mask(width, height, 0.4, rng));
    // A random projective map from the mask onto a 36 x 24 grid.
    const Homography h({36.0 / width * rng.uniform(0.6, 1.4), rng.uniform(-0.2, 0.2),
                        rng.uniform(-3.0, 3.0), rng.uniform(-0.2, 0.2),
                        24.0 / height * rng.uniform(0.6, 1.4), rng.uniform(-3.0, 3.0),
                        rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-3, 1e-3), 1.0});
    ASSERT_TRUE(same_pixels(h.warp(bits, 36, 24), h.warp(bits.to_image(), 36, 24)))
        << "trial " << trial << ", " << width << "x" << height;
  }
}

}  // namespace
}  // namespace safecross::vision
