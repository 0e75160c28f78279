#include "nn/im2col.h"

#include <algorithm>
#include <cstring>

namespace safecross::nn {

namespace {

// ceil(a / b) for b > 0; callers clamp, so truncation on a <= 0 is fine.
inline int ceil_div(int a, int b) { return (a + b - 1) / b; }

// Valid output-coordinate range [lo, hi) for kernel offset kx: the ox
// with 0 <= ox * stride - pad + kx < in.
inline void out_range(int kx, int stride, int pad, int in, int out, int& lo, int& hi) {
  lo = std::clamp(ceil_div(pad - kx, stride), 0, out);
  hi = std::clamp(ceil_div(in + pad - kx, stride), lo, out);
}

// One output row of width ow for spatial kernel offset (ky, kx): gathers
// from input row iy of x_plane (h x w), zero-filling the padded ends.
// iy is already known valid.
inline void gather_row(const float* src_row, int w, int kx, int stride, int pad, int ow,
                       float* dst) {
  int lo, hi;
  out_range(kx, stride, pad, w, ow, lo, hi);
  std::fill(dst, dst + lo, 0.0f);
  std::fill(dst + hi, dst + ow, 0.0f);
  int ix = lo * stride - pad + kx;
  if (stride == 1) {
    std::memcpy(dst + lo, src_row + ix, static_cast<std::size_t>(hi - lo) * sizeof(float));
  } else {
    for (int ox = lo; ox < hi; ++ox, ix += stride) dst[ox] = src_row[ix];
  }
}

// Adjoint of gather_row: scatter-add dst's valid span back into the
// input row.
inline void scatter_row(const float* src, int w, int kx, int stride, int pad, int ow,
                        float* gx_row) {
  int lo, hi;
  out_range(kx, stride, pad, w, ow, lo, hi);
  int ix = lo * stride - pad + kx;
  for (int ox = lo; ox < hi; ++ox, ix += stride) gx_row[ix] += src[ox];
}

}  // namespace

void im2col_2d(const float* x, const Im2ColGeom2D& g, int row_begin, int row_end, float* col) {
  const std::size_t cols = g.cols();
  const int kk = g.kernel * g.kernel;
  for (int r = row_begin; r < row_end; ++r) {
    const int ic = r / kk;
    const int ky = (r % kk) / g.kernel;
    const int kx = r % g.kernel;
    const float* xc = x + static_cast<std::size_t>(ic) * g.h * g.w;
    float* crow = col + static_cast<std::size_t>(r) * cols;
    for (int oy = 0; oy < g.oh; ++oy) {
      const int iy = oy * g.stride - g.pad + ky;
      float* dst = crow + static_cast<std::size_t>(oy) * g.ow;
      if (iy < 0 || iy >= g.h) {
        std::fill(dst, dst + g.ow, 0.0f);
      } else {
        gather_row(xc + static_cast<std::size_t>(iy) * g.w, g.w, kx, g.stride, g.pad, g.ow, dst);
      }
    }
  }
}

void col2im_2d(const float* col, const Im2ColGeom2D& g, int row_begin, int row_end, float* gx) {
  const std::size_t cols = g.cols();
  const int kk = g.kernel * g.kernel;
  for (int r = row_begin; r < row_end; ++r) {
    const int ic = r / kk;
    const int ky = (r % kk) / g.kernel;
    const int kx = r % g.kernel;
    float* gxc = gx + static_cast<std::size_t>(ic) * g.h * g.w;
    const float* crow = col + static_cast<std::size_t>(r) * cols;
    for (int oy = 0; oy < g.oh; ++oy) {
      const int iy = oy * g.stride - g.pad + ky;
      if (iy < 0 || iy >= g.h) continue;
      scatter_row(crow + static_cast<std::size_t>(oy) * g.ow, g.w, kx, g.stride, g.pad, g.ow,
                  gxc + static_cast<std::size_t>(iy) * g.w);
    }
  }
}

void im2col_3d(const float* x, const Im2ColGeom3D& g, int oz_begin, int oz_end, float* col,
               std::size_t ld) {
  const std::size_t plane = static_cast<std::size_t>(g.oh) * g.ow;
  const int ks2 = g.kernel_s * g.kernel_s;
  const int per_c = g.rows_per_channel();
  for (int r = 0; r < g.rows(); ++r) {
    const int ic = r / per_c;
    const int kz = (r % per_c) / ks2;
    const int ky = (r % ks2) / g.kernel_s;
    const int kx = r % g.kernel_s;
    const float* xc = x + static_cast<std::size_t>(ic) * g.t * g.h * g.w;
    float* crow = col + static_cast<std::size_t>(r) * ld;
    for (int oz = oz_begin; oz < oz_end; ++oz) {
      const int iz = oz * g.stride_t - g.pad_t + kz;
      float* dst_plane = crow + static_cast<std::size_t>(oz - oz_begin) * plane;
      if (iz < 0 || iz >= g.t) {
        std::fill(dst_plane, dst_plane + plane, 0.0f);
        continue;
      }
      const float* xz = xc + static_cast<std::size_t>(iz) * g.h * g.w;
      for (int oy = 0; oy < g.oh; ++oy) {
        const int iy = oy * g.stride_s - g.pad_s + ky;
        float* dst = dst_plane + static_cast<std::size_t>(oy) * g.ow;
        if (iy < 0 || iy >= g.h) {
          std::fill(dst, dst + g.ow, 0.0f);
        } else {
          gather_row(xz + static_cast<std::size_t>(iy) * g.w, g.w, kx, g.stride_s, g.pad_s, g.ow,
                     dst);
        }
      }
    }
  }
}

void col2im_3d(const float* col, const Im2ColGeom3D& g, int row_begin, int row_end, float* gx) {
  const std::size_t cols = g.cols();
  const std::size_t plane = static_cast<std::size_t>(g.oh) * g.ow;
  const int ks2 = g.kernel_s * g.kernel_s;
  const int per_c = g.rows_per_channel();
  for (int r = row_begin; r < row_end; ++r) {
    const int ic = r / per_c;
    const int kz = (r % per_c) / ks2;
    const int ky = (r % ks2) / g.kernel_s;
    const int kx = r % g.kernel_s;
    float* gxc = gx + static_cast<std::size_t>(ic) * g.t * g.h * g.w;
    const float* crow = col + static_cast<std::size_t>(r) * cols;
    for (int oz = 0; oz < g.ot; ++oz) {
      const int iz = oz * g.stride_t - g.pad_t + kz;
      if (iz < 0 || iz >= g.t) continue;
      float* gxz = gxc + static_cast<std::size_t>(iz) * g.h * g.w;
      const float* src_plane = crow + static_cast<std::size_t>(oz) * plane;
      for (int oy = 0; oy < g.oh; ++oy) {
        const int iy = oy * g.stride_s - g.pad_s + ky;
        if (iy < 0 || iy >= g.h) continue;
        scatter_row(src_plane + static_cast<std::size_t>(oy) * g.ow, g.w, kx, g.stride_s, g.pad_s,
                    g.ow, gxz + static_cast<std::size_t>(iy) * g.w);
      }
    }
  }
}

}  // namespace safecross::nn
