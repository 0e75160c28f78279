#pragma once
// Planar homography estimation and warping.
//
// The VP pipeline's last stage (Fig. 3c) remaps the camera view onto a
// top-down 2-D representation of the intersection. The road surface is a
// plane, so a 3x3 homography maps camera pixels to ground coordinates.
// We estimate it from >= 4 point correspondences via the normalized DLT
// and solve the linear system with Gaussian elimination.

#include <array>
#include <string>
#include <vector>

#include "vision/bitmask.h"
#include "vision/image.h"

namespace safecross::vision {

struct Point2 {
  double x = 0.0;
  double y = 0.0;
};

class Homography;

/// Outcome of a homography fit, with the numerical health indicators a
/// caller needs to reject an unusable solve instead of trusting it:
/// RMS reprojection residual over all input pairs (pixels, in dst units)
/// and a singular-value condition estimate of the fitted matrix.
struct FitReport {
  bool ok = false;
  std::array<double, 9> h{1, 0, 0, 0, 1, 0, 0, 0, 1};
  double residual_rms = 0.0;
  double condition = 0.0;
  std::string error;  // empty when ok

  Homography homography() const;
};

/// Row-major 3x3 projective transform.
class Homography {
 public:
  Homography();  // identity

  explicit Homography(const std::array<double, 9>& h) : h_(h) {}

  /// Least-squares DLT fit from point correspondences (src -> dst).
  /// Requires at least 4 non-degenerate pairs; throws otherwise.
  static Homography fit(const std::vector<Point2>& src, const std::vector<Point2>& dst);

  /// Non-throwing fit with Hartley normalization (points translated to
  /// their centroid and scaled to mean distance sqrt(2) before the solve,
  /// the standard conditioning step for the DLT) plus residual/condition
  /// diagnostics. `fit` delegates here and throws on failure.
  static FitReport fit_report(const std::vector<Point2>& src, const std::vector<Point2>& dst);

  Point2 apply(const Point2& p) const;

  Homography inverse() const;

  /// Composition: (a * b).apply(p) == a.apply(b.apply(p)).
  friend Homography operator*(const Homography& a, const Homography& b);

  const std::array<double, 9>& matrix() const { return h_; }

  /// Checkpoint serialization: the nine matrix entries.
  void save_state(common::StateWriter& w) const { persist(*this, w); }
  void load_state(common::StateReader& r) { persist(*this, r); }

  /// Warp `src` into a dst_width x dst_height image: for each destination
  /// pixel, apply the *inverse* mapping and bilinearly sample the source.
  /// `this` must map src coordinates to dst coordinates.
  Image warp(const Image& src, int dst_width, int dst_height) const;

  /// The same warp sampling a packed mask's bits directly: the result is
  /// bit-identical to warp(src.to_image(), ...).
  Image warp(const BitMask& src, int dst_width, int dst_height) const;

 private:
  template <class Self, class A>
  static void persist(Self& self, A& a) {
    for (auto& v : self.h_) a.f64(v);
  }

  std::array<double, 9> h_;
};

}  // namespace safecross::vision
