#pragma once
// Patch lowering for the GEMM convolution backend.
//
// im2col rewrites one image/clip as a (rows x cols) matrix whose row r
// holds, for every output position, the input value the kernel element r
// would read (zero where the receptive field hangs over the padding).
// Row r enumerates (channel, kernel offsets) in weight order, so the
// flattened conv weight times this matrix is exactly the conv output.
// col2im is the adjoint scatter-add used by the backward pass.
//
// The 2-D functions and col2im_3d take an explicit [row_begin, row_end)
// range so callers can partition the work across the thread pool; ranges
// aligned to whole channels touch disjoint input channels, making the
// col2im scatter race-free under that partitioning. im2col_3d instead
// takes a range of output planes, so the Conv3D forward can lower one
// cache-sized tile at a time and multiply it while it is still hot.

#include <cstddef>

namespace safecross::nn {

struct Im2ColGeom2D {
  int c_in, h, w;            // input (C, H, W)
  int kernel, stride, pad;   // square kernel geometry
  int oh, ow;                // output spatial size

  int rows() const { return c_in * kernel * kernel; }
  std::size_t cols() const { return static_cast<std::size_t>(oh) * ow; }
  int rows_per_channel() const { return kernel * kernel; }
};

struct Im2ColGeom3D {
  int c_in, t, h, w;                     // input (C, T, H, W)
  int kernel_t, kernel_s;                // temporal x square-spatial kernel
  int stride_t, stride_s, pad_t, pad_s;
  int ot, oh, ow;                        // output size

  int rows() const { return c_in * kernel_t * kernel_s * kernel_s; }
  std::size_t cols() const { return static_cast<std::size_t>(ot) * oh * ow; }
  int rows_per_channel() const { return kernel_t * kernel_s * kernel_s; }
};

/// Fill rows [row_begin, row_end) of the col matrix from image x (C,H,W).
/// col points at the matrix base (row r lives at col + r * g.cols()).
void im2col_2d(const float* x, const Im2ColGeom2D& g, int row_begin, int row_end, float* col);

/// Adjoint of im2col_2d: gx[c][iy][ix] += col[r][m]. gx must be zeroed by
/// the caller before the first row range is applied.
void col2im_2d(const float* col, const Im2ColGeom2D& g, int row_begin, int row_end, float* gx);

/// Fill every row of the col matrix for output planes [oz_begin, oz_end)
/// of clip x (C,T,H,W): the tile's columns, (oz_end - oz_begin) * oh * ow
/// of them, starting at col, with row r at col + r * ld. Pass ld =
/// g.cols() and col offset by oz_begin * oh * ow to write a tile in place
/// inside the whole-clip matrix, or ld = tile width for a packed tile.
void im2col_3d(const float* x, const Im2ColGeom3D& g, int oz_begin, int oz_end, float* col,
               std::size_t ld);
void col2im_3d(const float* col, const Im2ColGeom3D& g, int row_begin, int row_end, float* gx);

}  // namespace safecross::nn
