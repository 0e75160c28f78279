#pragma once
// 2-D convolution over (N, C, H, W) tensors, with stride and zero padding.
//
// Used by the TSN/ResNet-lite/Inception-lite 2-D backbones and the
// YOLO-lite detector. It runs Conv3D's im2col + GEMM lowering
// (nn/im2col.h) at t = 1 with a 1-frame kernel; only the 4-D shapes of
// its tensors and parameters are its own.

#include <vector>

#include "nn/layer.h"

namespace safecross::nn {

struct Conv2DConfig {
  int in_channels = 1;
  int out_channels = 1;
  int kernel = 3;
  int stride = 1;
  int padding = 1;
  bool bias = true;
};

class Conv2D final : public Layer {
 public:
  explicit Conv2D(Conv2DConfig config);

  Tensor forward(const Tensor& input, bool training) override;
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override;
  std::string name() const override { return "Conv2D"; }

  const Conv2DConfig& config() const { return config_; }
  Param& weight() { return weight_; }
  Param& bias() { return bias_; }

  /// Output spatial size for a given input size.
  static int out_size(int in, int kernel, int stride, int padding);

 private:
  Conv2DConfig config_;
  Param weight_;  // (out_c, in_c, k, k)
  Param bias_;    // (out_c)
  // Backward state, written only by training forwards (as in Conv3D).
  Tensor cached_input_;
  std::vector<float> col_;
  bool backward_ready_ = false;
};

}  // namespace safecross::nn
