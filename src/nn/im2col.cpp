#include "nn/im2col.h"

#include <algorithm>
#include <cstring>

#include "common/arena.h"
#include "common/thread_pool.h"
#include "nn/gemm.h"

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

// Fill every row of the col matrix for output planes [oz_begin, oz_end)
// of clip x (C,T,H,W): the tile's (oz_end - oz_begin) * oh * ow columns,
// starting at col, with row r at col + r * ld. ld = g.cols() and col
// offset by oz_begin * oh * ow writes the tile in place inside the
// whole-clip matrix; ld = tile width writes a packed tile.
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

// Adjoint of im2col_3d over rows [row_begin, row_end) of the whole-clip
// matrix: gx[c][iz][iy][ix] += col[r][m]. Row ranges aligned to whole
// channels touch disjoint input channels, so channel-partitioned calls
// are race-free.
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

// A lowered tile this small stays in L2 between im2col writing it and
// the GEMM reading it back.
constexpr std::size_t kTileBytes = 128 * 1024;

// Output planes per forward job: as many as fit kTileBytes, then fewer
// until the batch spreads over the pool (two jobs per worker).
int planes_per_tile(const Im2ColGeom3D& g, int n) {
  const std::size_t plane_bytes =
      static_cast<std::size_t>(g.rows()) * g.oh * g.ow * sizeof(float);
  int per = static_cast<int>(
      std::clamp<std::size_t>(kTileBytes / plane_bytes, 1, static_cast<std::size_t>(g.ot)));
  const std::size_t want = 2 * ThreadPool::global().size();
  while (per > 1 && static_cast<std::size_t>(n) * ((g.ot + per - 1) / per) < want) {
    per = (per + 1) / 2;
  }
  return per;
}

}  // namespace

// Each job owns one batch item's output planes [oz0, oz1): it lowers
// just that tile, multiplies it by the weights on its own thread and adds
// the bias, all while the tile is in cache. The bits match a whole-panel
// sgemm per item: k is never split, the kKc slabs, microkernel and store
// are the same, and the bias still lands after the last slab, so no
// output's reduction order changes.
void conv_forward(const Im2ColGeom3D& g, int n, int c_out, const float* x, const float* w,
                  const float* bias, float* y, std::vector<float>* keep) {
  const int rows = g.rows();
  const std::size_t cols = g.cols();
  const std::size_t plane = static_cast<std::size_t>(g.oh) * g.ow;
  const std::size_t per_item = static_cast<std::size_t>(rows) * cols;
  // A kept lowering is written in place, at the offsets conv_backward's
  // weight gradient reads.
  if (keep != nullptr && keep->size() < static_cast<std::size_t>(n) * per_item) {
    keep->resize(static_cast<std::size_t>(n) * per_item);
  }
  const std::size_t in_item = static_cast<std::size_t>(g.c_in) * g.t * g.h * g.w;
  const int per_tile = planes_per_tile(g, n);
  const int tiles = (g.ot + per_tile - 1) / per_tile;
  ThreadPool::global().parallel_for(static_cast<std::size_t>(n) * tiles, [&](std::size_t job) {
    const int bi = static_cast<int>(job) / tiles;
    const int oz0 = static_cast<int>(job) % tiles * per_tile;
    const int oz1 = std::min(g.ot, oz0 + per_tile);
    const std::size_t off = static_cast<std::size_t>(oz0) * plane;
    const std::size_t width = static_cast<std::size_t>(oz1 - oz0) * plane;

    ScratchArena& arena = ScratchArena::local();
    ScratchArena::Scope scope(arena);
    float* col = keep != nullptr ? keep->data() + bi * per_item + off
                                 : arena.floats(static_cast<std::size_t>(rows) * width);
    const std::size_t ld = keep != nullptr ? cols : width;
    im2col_3d(x + bi * in_item, g, oz0, oz1, col, ld);

    float* y_tile = y + static_cast<std::size_t>(bi) * c_out * cols + off;
    sgemm_serial(Trans::kNo, Trans::kNo, c_out, static_cast<int>(width), rows, 1.0f, w, rows,
                 col, static_cast<int>(ld), 0.0f, y_tile, static_cast<int>(cols));
    if (bias != nullptr) {
      for (int oc = 0; oc < c_out; ++oc) {
        float* row = y_tile + static_cast<std::size_t>(oc) * cols;
        for (std::size_t m = 0; m < width; ++m) row[m] += bias[oc];
      }
    }
  });
}

// Per item: dW += dy * col^T and dx = col2im(W^T * dy); db sums dy.
void conv_backward(const Im2ColGeom3D& g, int n, int c_out, const float* dy, const float* w,
                   const float* col, float* gx, float* gw, float* gb) {
  const int rows = g.rows();
  const std::size_t cols = g.cols();
  const std::size_t per_item = static_cast<std::size_t>(rows) * cols;
  ScratchArena& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  float* col_grad = arena.floats(per_item);

  if (gb != nullptr) {
    ThreadPool::global().parallel_for(static_cast<std::size_t>(c_out), [&](std::size_t oc) {
      double acc = 0.0;
      for (int bi = 0; bi < n; ++bi) {
        const float* row = dy + (static_cast<std::size_t>(bi) * c_out + oc) * cols;
        for (std::size_t m = 0; m < cols; ++m) acc += row[m];
      }
      gb[oc] += static_cast<float>(acc);
    });
  }

  for (int bi = 0; bi < n; ++bi) {
    sgemm(Trans::kNo, Trans::kTrans, c_out, rows, static_cast<int>(cols), 1.0f,
          dy + static_cast<std::size_t>(bi) * c_out * cols, static_cast<int>(cols),
          col + bi * per_item, static_cast<int>(cols), 1.0f, gw, rows);
  }

  const std::size_t in_item = static_cast<std::size_t>(g.c_in) * g.t * g.h * g.w;
  for (int bi = 0; bi < n; ++bi) {
    sgemm(Trans::kTrans, Trans::kNo, rows, static_cast<int>(cols), c_out, 1.0f, w, rows,
          dy + static_cast<std::size_t>(bi) * c_out * cols, static_cast<int>(cols), 0.0f,
          col_grad, static_cast<int>(cols));
    float* gx_b = gx + bi * in_item;
    ThreadPool::global().parallel_for(static_cast<std::size_t>(g.c_in), [&](std::size_t ic) {
      col2im_3d(col_grad, g, static_cast<int>(ic) * g.rows_per_channel(),
                (static_cast<int>(ic) + 1) * g.rows_per_channel(), gx_b);
    });
  }
}

}  // namespace safecross::nn
