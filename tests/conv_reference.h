#pragma once
// Test-only convolution oracle: the naive range-clipped loops, kept as
// free functions so the layers' im2col + GEMM lowering can be checked
// against an independent implementation. Serial and unblocked on
// purpose; use small geometries.
//
// The 2-D functions are the 3-D ones at t = 1 with a 1-frame kernel.

#include "nn/conv2d.h"
#include "nn/conv3d.h"

namespace safecross::testing {

struct ConvGrads {
  nn::Tensor input;   // dL/dx
  nn::Tensor weight;  // dL/dW
  nn::Tensor bias;    // dL/db (all zero when the layer has no bias)
};

/// y = conv(x, weight) + bias over (N, C, T, H, W); bias is used only
/// when cfg.bias.
nn::Tensor reference_conv3d_forward(const nn::Conv3DConfig& cfg, const nn::Tensor& x,
                                    const nn::Tensor& weight, const nn::Tensor& bias);
ConvGrads reference_conv3d_backward(const nn::Conv3DConfig& cfg, const nn::Tensor& x,
                                    const nn::Tensor& weight, const nn::Tensor& grad_output);

/// The same over (N, C, H, W) with an (out, in, k, k) weight.
nn::Tensor reference_conv2d_forward(const nn::Conv2DConfig& cfg, const nn::Tensor& x,
                                    const nn::Tensor& weight, const nn::Tensor& bias);
ConvGrads reference_conv2d_backward(const nn::Conv2DConfig& cfg, const nn::Tensor& x,
                                    const nn::Tensor& weight, const nn::Tensor& grad_output);

}  // namespace safecross::testing
