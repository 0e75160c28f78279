#include "vision/homography.h"

#include <gtest/gtest.h>

#include <limits>

namespace safecross::vision {
namespace {

TEST(Homography, IdentityByDefault) {
  const Homography h;
  const Point2 p = h.apply({3.0, 4.0});
  EXPECT_DOUBLE_EQ(p.x, 3.0);
  EXPECT_DOUBLE_EQ(p.y, 4.0);
}

TEST(Homography, FitsExactAffineMap) {
  // dst = 2*src + (10, -5)
  std::vector<Point2> src{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 3}};
  std::vector<Point2> dst;
  for (const auto& p : src) dst.push_back({2 * p.x + 10, 2 * p.y - 5});
  const Homography h = Homography::fit(src, dst);
  for (std::size_t i = 0; i < src.size(); ++i) {
    const Point2 q = h.apply(src[i]);
    EXPECT_NEAR(q.x, dst[i].x, 1e-9);
    EXPECT_NEAR(q.y, dst[i].y, 1e-9);
  }
}

TEST(Homography, FitsPerspectiveTrapezoid) {
  // Square to trapezoid — a genuine projective map.
  std::vector<Point2> src{{0, 0}, {100, 0}, {0, 100}, {100, 100}};
  std::vector<Point2> dst{{25, 0}, {75, 0}, {0, 100}, {100, 100}};
  const Homography h = Homography::fit(src, dst);
  for (std::size_t i = 0; i < src.size(); ++i) {
    const Point2 q = h.apply(src[i]);
    EXPECT_NEAR(q.x, dst[i].x, 1e-6);
    EXPECT_NEAR(q.y, dst[i].y, 1e-6);
  }
  // Midpoints move according to perspective, not linearly: the far-edge
  // midpoint stays at x=50 but interior points shift.
  const Point2 mid = h.apply({50, 50});
  EXPECT_NEAR(mid.x, 50.0, 1e-6);
  // Units near the camera (bottom) take more image rows, so the world
  // midpoint appears above the image midline.
  EXPECT_LT(mid.y, 50.0);
}

TEST(Homography, InverseRoundTrips) {
  std::vector<Point2> src{{0, 0}, {100, 0}, {0, 100}, {100, 100}};
  std::vector<Point2> dst{{25, 10}, {75, 5}, {-3, 100}, {110, 95}};
  const Homography h = Homography::fit(src, dst);
  const Homography inv = h.inverse();
  for (const Point2 p : {Point2{13.0, 57.0}, Point2{88.0, 22.0}}) {
    const Point2 q = inv.apply(h.apply(p));
    EXPECT_NEAR(q.x, p.x, 1e-6);
    EXPECT_NEAR(q.y, p.y, 1e-6);
  }
}

TEST(Homography, ComposeAppliesRightThenLeft) {
  const Homography scale({2, 0, 0, 0, 2, 0, 0, 0, 1});
  const Homography shift({1, 0, 5, 0, 1, -2, 0, 0, 1});
  const Point2 p = (shift * scale).apply({3, 3});
  EXPECT_DOUBLE_EQ(p.x, 11.0);  // 3*2 + 5
  EXPECT_DOUBLE_EQ(p.y, 4.0);   // 3*2 - 2
}

TEST(Homography, FitRejectsTooFewPoints) {
  std::vector<Point2> three{{0, 0}, {1, 0}, {0, 1}};
  EXPECT_THROW(Homography::fit(three, three), std::invalid_argument);
}

TEST(Homography, FitRejectsDegenerateConfiguration) {
  // All collinear points cannot determine a homography.
  std::vector<Point2> src{{0, 0}, {1, 1}, {2, 2}, {3, 3}};
  EXPECT_THROW(Homography::fit(src, src), std::runtime_error);
}

TEST(Homography, WarpIdentityCopiesImage) {
  Image img(8, 6, 0.0f);
  img.at(3, 2) = 1.0f;
  const Image out = Homography().warp(img, 8, 6);
  EXPECT_FLOAT_EQ(out.at(3, 2), 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 0), 0.0f);
}

TEST(Homography, WarpScalesContent) {
  // Map src -> dst with 2x scale: a pixel at (2,2) lands at (4,4).
  const Homography scale({2, 0, 0, 0, 2, 0, 0, 0, 1});
  Image img(8, 8, 0.0f);
  img.at(2, 2) = 1.0f;
  const Image out = scale.warp(img, 16, 16);
  EXPECT_GT(out.at(4, 4), 0.5f);
}

TEST(Homography, WarpLeavesUnmappedPixelsZero) {
  const Homography shift({1, 0, 100, 0, 1, 100, 0, 0, 1});
  const Image out = shift.warp(Image(8, 8, 1.0f), 8, 8);
  EXPECT_EQ(out.count_above(0.5f), 0u);
}

// A non-finite matrix maps every pixel to NaN, which must count as outside
// the source rather than reach the bilinear sampler's integer casts.
TEST(Homography, NonFiniteMatrixWarpsToBackground) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Homography broken({1, 0, nan, 0, 1, 0, 0, 0, 1});
  EXPECT_EQ(broken.warp(Image(8, 8, 1.0f), 8, 8).count_above(0.5f), 0u);
  EXPECT_EQ(broken.warp(BitMask::from_image(Image(8, 8, 1.0f)), 8, 8).count_above(0.5f), 0u);
}

}  // namespace
}  // namespace safecross::vision
