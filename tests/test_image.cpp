#include "vision/image.h"

#include <gtest/gtest.h>

#include "common/state_io.h"

namespace safecross::vision {
namespace {

TEST(Image, ConstructionAndFill) {
  Image img(4, 3, 0.5f);
  EXPECT_EQ(img.width(), 4);
  EXPECT_EQ(img.height(), 3);
  EXPECT_EQ(img.size(), 12u);
  EXPECT_FLOAT_EQ(img.at(2, 1), 0.5f);
  img.fill(0.25f);
  EXPECT_FLOAT_EQ(img.at(3, 2), 0.25f);
}

TEST(Image, RejectsNonPositiveDimensions) {
  EXPECT_THROW(Image(0, 5), std::invalid_argument);
  EXPECT_THROW(Image(5, -1), std::invalid_argument);
}

TEST(Image, AtClampedReturnsOutsideValue) {
  Image img(2, 2, 1.0f);
  EXPECT_FLOAT_EQ(img.at_clamped(-1, 0, 0.7f), 0.7f);
  EXPECT_FLOAT_EQ(img.at_clamped(0, 5, 0.7f), 0.7f);
  EXPECT_FLOAT_EQ(img.at_clamped(1, 1, 0.7f), 1.0f);
}

TEST(Image, BilinearSamplingInterpolates) {
  Image img(2, 2);
  img.at(0, 0) = 0.0f;
  img.at(1, 0) = 1.0f;
  img.at(0, 1) = 0.0f;
  img.at(1, 1) = 1.0f;
  EXPECT_NEAR(img.sample_bilinear(0.5f, 0.5f), 0.5f, 1e-6);
  EXPECT_NEAR(img.sample_bilinear(0.25f, 0.0f), 0.25f, 1e-6);
  // Clamps beyond the border.
  EXPECT_NEAR(img.sample_bilinear(-5.0f, 0.0f), 0.0f, 1e-6);
}

TEST(Image, AbsdiffAndThreshold) {
  Image a(2, 1), b(2, 1);
  a.at(0, 0) = 0.9f;
  b.at(0, 0) = 0.2f;
  a.at(1, 0) = 0.5f;
  b.at(1, 0) = 0.45f;
  const Image d = Image::absdiff(a, b);
  EXPECT_NEAR(d.at(0, 0), 0.7f, 1e-6);
  const Image m = d.threshold(0.1f);
  EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(m.at(1, 0), 0.0f);
}

TEST(Image, AbsdiffRejectsMismatch) {
  EXPECT_THROW(Image::absdiff(Image(2, 2), Image(3, 2)), std::invalid_argument);
}

TEST(Image, CountAboveAndMean) {
  Image img(2, 2, 0.0f);
  img.at(0, 0) = 1.0f;
  img.at(1, 1) = 1.0f;
  EXPECT_EQ(img.count_above(0.5f), 2u);
  EXPECT_FLOAT_EQ(img.mean(), 0.5f);
}

TEST(Image, ResizeNearestPreservesCorners) {
  Image img(4, 4, 0.0f);
  img.at(0, 0) = 1.0f;
  const Image small = img.resized_nearest(2, 2);
  EXPECT_FLOAT_EQ(small.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(small.at(1, 1), 0.0f);
}

TEST(Image, ResizeAreaAverages) {
  Image img(2, 2);
  img.at(0, 0) = 1.0f;
  img.at(1, 0) = 0.0f;
  img.at(0, 1) = 1.0f;
  img.at(1, 1) = 0.0f;
  const Image one = img.resized_area(1, 1);
  EXPECT_NEAR(one.at(0, 0), 0.5f, 1e-6);
}

TEST(Image, BoxBlurSmoothsImpulse) {
  Image img(5, 5, 0.0f);
  img.at(2, 2) = 9.0f;
  const Image blurred = img.box_blur3();
  EXPECT_NEAR(blurred.at(2, 2), 1.0f, 1e-5);
  EXPECT_NEAR(blurred.at(1, 1), 1.0f, 1e-5);
  EXPECT_NEAR(blurred.at(0, 0), 0.0f, 1e-5);
}

TEST(Image, AsciiRenderHasExpectedRows) {
  Image img(64, 32, 0.5f);
  const std::string art = img.to_ascii(32);
  // 32 cols -> 32 * (32/64) / 2 = 8 rows of 33 chars (incl. newline).
  int rows = 0;
  for (const char c : art) {
    if (c == '\n') ++rows;
  }
  EXPECT_EQ(rows, 8);
}

TEST(ImageState, EmptyImageRoundTrips) {
  // An empty image has no pixel buffer at all: save writes zero bytes and
  // load must restore it without touching a null destination.
  // Loaded into a default-constructed image (no buffer either) and into
  // one that held pixels before.
  const Image empty;
  common::StateWriter w;
  empty.save_state(w);
  for (Image restored : {Image(), Image(3, 2, 1.0f)}) {
    common::StateReader r(w.bytes());
    restored.load_state(r);
    EXPECT_TRUE(r.at_end());
    EXPECT_TRUE(restored.empty());
    EXPECT_EQ(restored.width(), 0);
    EXPECT_EQ(restored.height(), 0);
  }
}

}  // namespace
}  // namespace safecross::vision
