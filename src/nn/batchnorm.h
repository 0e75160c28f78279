#pragma once
// Batch normalization over the channel axis (dim 1) of (N, C, ...)
// tensors. Training mode normalizes with batch statistics and updates
// exponential running estimates; eval mode uses the running estimates.

#include "nn/layer.h"

namespace safecross::nn {

class BatchNorm final : public Layer {
 public:
  explicit BatchNorm(int channels, float momentum = 0.1f, float eps = 1e-5f);

  Tensor forward(const Tensor& input, bool training) override;
  /// The inference forward: normalizes x in place with the running
  /// statistics. forward(x, false) runs it on a copy; pass an rvalue to
  /// skip the copy, as ConvBNReLU3D does with its conv output.
  Tensor infer(Tensor x);
  Tensor backward(const Tensor& grad_output) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> buffers() override { return {&running_mean_, &running_var_}; }
  std::string name() const override { return "BatchNorm"; }

  int channels() const { return channels_; }

 private:
  void check_input(const Tensor& input) const;

  int channels_;
  float momentum_;
  float eps_;
  Param gamma_;  // (C) scale
  Param beta_;   // (C) shift
  Tensor running_mean_;
  Tensor running_var_;

  // Backward state, written only by training forwards (in_shape_ is
  // empty after an inference forward).
  Tensor cached_xhat_;
  std::vector<float> cached_inv_std_;
  std::vector<int> in_shape_;
};

}  // namespace safecross::nn
