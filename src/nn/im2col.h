#pragma once
// The convolution lowering shared by Conv2D and Conv3D.
//
// im2col rewrites one clip as a (rows x cols) matrix whose row r holds,
// for every output position, the input value the kernel element r would
// read (zero where the receptive field hangs over the padding). Row r
// enumerates (channel, kernel offsets) in weight order, so the flattened
// conv weight times this matrix is exactly the conv output; col2im is
// the adjoint scatter-add the backward pass uses.
//
// A 2-D convolution is the 3-D one at t = 1 with a 1-frame kernel,
// stride 1 and no temporal padding: an (out, in, k, k) weight and an
// (N, C, H, W) tensor have the same memory layout as their 3-D forms
// with a unit time axis, so one pair of functions serves both layers.

#include <cstddef>
#include <vector>

namespace safecross::nn {

struct Im2ColGeom3D {
  int c_in, t, h, w;                     // input (C, T, H, W)
  int kernel_t, kernel_s;                // temporal x square-spatial kernel
  int stride_t, stride_s, pad_t, pad_s;
  int ot, oh, ow;                        // output size

  int rows() const { return c_in * kernel_t * kernel_s * kernel_s; }
  std::size_t cols() const { return static_cast<std::size_t>(ot) * oh * ow; }
  int rows_per_channel() const { return kernel_t * kernel_s * kernel_s; }
};

/// y (n, c_out, ot, oh, ow) = w (c_out, rows) * im2col(x) + b over a
/// batch x (n, c_in, t, h, w). bias may be null. One pool dispatch: each
/// job lowers one cache-sized tile of an item's output planes and
/// multiplies it on its own thread. With `keep` non-null the lowering is
/// written there (n * rows * cols floats, resized as needed) for
/// conv_backward's weight gradient; otherwise it lives in per-thread
/// ScratchArena tiles and nothing stays resident.
void conv_forward(const Im2ColGeom3D& g, int n, int c_out, const float* x, const float* w,
                  const float* bias, float* y, std::vector<float>* keep);

/// Gradients of conv_forward given dy (n, c_out, ot, oh, ow) and the
/// lowering it kept: gx (zeroed by the caller) receives dx, and gw and
/// gb (null when the layer has no bias) accumulate dW and db.
void conv_backward(const Im2ColGeom3D& g, int n, int c_out, const float* dy, const float* w,
                   const float* col, float* gx, float* gw, float* gb);

}  // namespace safecross::nn
