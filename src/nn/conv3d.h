#pragma once
// 3-D (spatio-temporal) convolution over (N, C, T, H, W) tensors.
//
// The workhorse of the SlowFast pathways and the C3D baseline: temporal
// kernel x spatial kernel with independent strides, zero padding.
// Forward and backward run the shared im2col + GEMM lowering
// (nn/im2col.h), which lowers the batch one tile of output planes at a
// time and multiplies each tile while it is in cache.

#include <vector>

#include "nn/layer.h"

namespace safecross::nn {

struct Conv3DConfig {
  int in_channels = 1;
  int out_channels = 1;
  int kernel_t = 3;
  int kernel_s = 3;   // spatial kernel (square)
  int stride_t = 1;
  int stride_s = 1;
  int pad_t = 1;
  int pad_s = 1;
  bool bias = true;
};

class Conv3D final : public Layer {
 public:
  explicit Conv3D(Conv3DConfig config);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Conv3D"; }

  const Conv3DConfig& config() const { return config_; }
  Param& weight() { return weight_; }

  static int out_size(int in, int kernel, int stride, int padding);

 private:
  Conv3DConfig config_;
  Param weight_;  // (out_c, in_c, kt, ks, ks)
  Param bias_;    // (out_c)
  // Backward state, written only by training forwards: the input and the
  // lowered batch for the weight gradient. Inference forwards lower into
  // per-thread ScratchArena tiles instead.
  Tensor cached_input_;
  std::vector<float> col_;
  bool backward_ready_ = false;
};

}  // namespace safecross::nn
