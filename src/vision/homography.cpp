#include "vision/homography.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace safecross::vision {

namespace {

// Solve the square system A x = b in place via Gaussian elimination with
// partial pivoting. A is n x n row-major. Returns false on a degenerate
// (rank-deficient) system.
bool solve_linear(std::vector<double> a, std::vector<double> b, int n,
                  std::vector<double>& x) {
  for (int col = 0; col < n; ++col) {
    // Pivot.
    int pivot = col;
    for (int r = col + 1; r < n; ++r) {
      if (std::fabs(a[r * n + col]) > std::fabs(a[pivot * n + col])) pivot = r;
    }
    if (std::fabs(a[pivot * n + col]) < 1e-12) return false;
    if (pivot != col) {
      for (int c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    // Eliminate below.
    for (int r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] / a[col * n + col];
      for (int c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  // Back substitution.
  x.assign(n, 0.0);
  for (int r = n - 1; r >= 0; --r) {
    double sum = b[r];
    for (int c = r + 1; c < n; ++c) sum -= a[r * n + c] * x[c];
    x[r] = sum / a[r * n + r];
  }
  return true;
}

// Hartley normalization: translate the centroid to the origin and scale
// so the mean distance from it is sqrt(2). Returns false when the points
// are (near-)coincident and no finite scale exists.
bool hartley_transform(const std::vector<Point2>& pts, std::array<double, 9>& t,
                       std::vector<Point2>& out) {
  const double n = static_cast<double>(pts.size());
  double cx = 0.0, cy = 0.0;
  for (const Point2& p : pts) {
    cx += p.x;
    cy += p.y;
  }
  cx /= n;
  cy /= n;
  double mean_dist = 0.0;
  for (const Point2& p : pts) {
    mean_dist += std::hypot(p.x - cx, p.y - cy);
  }
  mean_dist /= n;
  if (mean_dist < 1e-12) return false;
  const double s = std::sqrt(2.0) / mean_dist;
  t = {s, 0, -s * cx, 0, s, -s * cy, 0, 0, 1};
  out.resize(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    out[i] = {s * (pts[i].x - cx), s * (pts[i].y - cy)};
  }
  return true;
}

// Condition estimate of a 3x3 matrix: ratio of extreme singular values,
// computed as sqrt(lambda_max / lambda_min) of HᵀH via cyclic Jacobi
// rotations (the matrix is symmetric positive semi-definite).
double condition_estimate(const std::array<double, 9>& h) {
  double a[3][3] = {};
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      for (int k = 0; k < 3; ++k) a[r][c] += h[k * 3 + r] * h[k * 3 + c];
    }
  }
  for (int sweep = 0; sweep < 32; ++sweep) {
    double off = std::fabs(a[0][1]) + std::fabs(a[0][2]) + std::fabs(a[1][2]);
    if (off < 1e-15) break;
    for (int p = 0; p < 3; ++p) {
      for (int q = p + 1; q < 3; ++q) {
        if (std::fabs(a[p][q]) < 1e-18) continue;
        const double theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
        const double sign = theta >= 0.0 ? 1.0 : -1.0;
        const double t = sign / (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int k = 0; k < 3; ++k) {
          const double akp = a[k][p], akq = a[k][q];
          a[k][p] = c * akp - s * akq;
          a[k][q] = s * akp + c * akq;
        }
        for (int k = 0; k < 3; ++k) {
          const double apk = a[p][k], aqk = a[q][k];
          a[p][k] = c * apk - s * aqk;
          a[q][k] = s * apk + c * aqk;
        }
      }
    }
  }
  const double lmax = std::max({a[0][0], a[1][1], a[2][2]});
  const double lmin = std::min({a[0][0], a[1][1], a[2][2]});
  if (lmin <= 0.0) return std::numeric_limits<double>::infinity();
  return std::sqrt(lmax / lmin);
}

}  // namespace

Homography::Homography() : h_{1, 0, 0, 0, 1, 0, 0, 0, 1} {}

Homography FitReport::homography() const { return Homography(h); }

Homography Homography::fit(const std::vector<Point2>& src, const std::vector<Point2>& dst) {
  if (src.size() != dst.size() || src.size() < 4) {
    throw std::invalid_argument("Homography::fit needs >= 4 matched point pairs");
  }
  const FitReport report = fit_report(src, dst);
  if (!report.ok) {
    throw std::runtime_error("Homography fit: " + report.error);
  }
  return report.homography();
}

FitReport Homography::fit_report(const std::vector<Point2>& src,
                                 const std::vector<Point2>& dst) {
  FitReport report;
  if (src.size() != dst.size() || src.size() < 4) {
    report.error = "needs >= 4 matched point pairs";
    return report;
  }
  std::array<double, 9> t_src{}, t_dst{};
  std::vector<Point2> nsrc, ndst;
  if (!hartley_transform(src, t_src, nsrc) || !hartley_transform(dst, t_dst, ndst)) {
    report.error = "degenerate point configuration";
    return report;
  }
  // DLT with h33 fixed to 1 on the normalized points: each pair gives two
  // rows of an over-determined 8-unknown system; solve the normal equations.
  const int n = static_cast<int>(nsrc.size());
  std::vector<double> ata(64, 0.0);
  std::vector<double> atb(8, 0.0);
  for (int i = 0; i < n; ++i) {
    const double x = nsrc[i].x, y = nsrc[i].y;
    const double u = ndst[i].x, v = ndst[i].y;
    const double row1[8] = {x, y, 1, 0, 0, 0, -u * x, -u * y};
    const double row2[8] = {0, 0, 0, x, y, 1, -v * x, -v * y};
    for (int r = 0; r < 8; ++r) {
      for (int c = 0; c < 8; ++c) {
        ata[r * 8 + c] += row1[r] * row1[c] + row2[r] * row2[c];
      }
      atb[r] += row1[r] * u + row2[r] * v;
    }
  }
  std::vector<double> h8;
  if (!solve_linear(std::move(ata), std::move(atb), 8, h8)) {
    report.error = "degenerate point configuration";
    return report;
  }
  // Denormalize: H = T_dst^-1 * Hn * T_src, rescaled to the h33 == 1
  // convention the rest of the code assumes.
  const Homography hn({h8[0], h8[1], h8[2], h8[3], h8[4], h8[5], h8[6], h8[7], 1.0});
  Homography denorm = Homography(t_dst).inverse() * hn * Homography(t_src);
  std::array<double, 9> h = denorm.matrix();
  if (std::fabs(h[8]) < 1e-15) {
    report.error = "degenerate point configuration";
    return report;
  }
  for (double& v : h) v /= h[8];
  report.h = h;
  const Homography fitted(h);
  double sq_sum = 0.0;
  for (int i = 0; i < n; ++i) {
    const Point2 p = fitted.apply(src[i]);
    const double dx = p.x - dst[i].x, dy = p.y - dst[i].y;
    sq_sum += dx * dx + dy * dy;
  }
  report.residual_rms = std::sqrt(sq_sum / n);
  report.condition = condition_estimate(h);
  report.ok = true;
  return report;
}

Point2 Homography::apply(const Point2& p) const {
  const double w = h_[6] * p.x + h_[7] * p.y + h_[8];
  if (std::fabs(w) < 1e-12) return {0.0, 0.0};
  return {(h_[0] * p.x + h_[1] * p.y + h_[2]) / w,
          (h_[3] * p.x + h_[4] * p.y + h_[5]) / w};
}

Homography Homography::inverse() const {
  // Adjugate / determinant of the 3x3.
  const auto& m = h_;
  std::array<double, 9> inv{};
  inv[0] = m[4] * m[8] - m[5] * m[7];
  inv[1] = m[2] * m[7] - m[1] * m[8];
  inv[2] = m[1] * m[5] - m[2] * m[4];
  inv[3] = m[5] * m[6] - m[3] * m[8];
  inv[4] = m[0] * m[8] - m[2] * m[6];
  inv[5] = m[2] * m[3] - m[0] * m[5];
  inv[6] = m[3] * m[7] - m[4] * m[6];
  inv[7] = m[1] * m[6] - m[0] * m[7];
  inv[8] = m[0] * m[4] - m[1] * m[3];
  const double det = m[0] * inv[0] + m[1] * inv[3] + m[2] * inv[6];
  if (std::fabs(det) < 1e-15) throw std::runtime_error("Homography not invertible");
  for (auto& v : inv) v /= det;
  return Homography(inv);
}

Homography operator*(const Homography& a, const Homography& b) {
  std::array<double, 9> m{};
  for (int r = 0; r < 3; ++r) {
    for (int c = 0; c < 3; ++c) {
      double sum = 0.0;
      for (int k = 0; k < 3; ++k) sum += a.h_[r * 3 + k] * b.h_[k * 3 + c];
      m[r * 3 + c] = sum;
    }
  }
  return Homography(m);
}

namespace {

template <typename Source>
Image warp_from(const Homography& inv, const Source& src, int dst_width, int dst_height) {
  Image out(dst_width, dst_height, 0.0f);
  for (int y = 0; y < dst_height; ++y) {
    for (int x = 0; x < dst_width; ++x) {
      const Point2 s = inv.apply({static_cast<double>(x), static_cast<double>(y)});
      // Written so a NaN coordinate (a non-finite matrix) is skipped too.
      if (!(s.x >= 0 && s.y >= 0 && s.x <= src.width() - 1 && s.y <= src.height() - 1)) continue;
      out.at(x, y) = src.sample_bilinear(static_cast<float>(s.x), static_cast<float>(s.y));
    }
  }
  return out;
}

}  // namespace

Image Homography::warp(const Image& src, int dst_width, int dst_height) const {
  return warp_from(inverse(), src, dst_width, dst_height);
}

Image Homography::warp(const BitMask& src, int dst_width, int dst_height) const {
  return warp_from(inverse(), src, dst_width, dst_height);
}

}  // namespace safecross::vision
