#pragma once
// ResNet-lite: a small but genuine residual network over (N, 1, H, W)
// images — identity and projection skip connections with manual
// forward/backward plumbing. Serves three roles: an image-classification
// workload with real weights for the switching engine, the backbone of
// the learned weather classifier, and a structural test bed for skip
// connections (which SlowFast's scaled-down pathways omit).

#include <memory>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace safecross::models {

struct ResNetLiteConfig {
  int num_classes = 3;
  int base_channels = 8;
  int blocks_per_stage = 2;  // two stages; stage 2 doubles width at stride 2
  std::uint64_t init_seed = 25u;
};

/// One residual block: conv-bn-relu-conv-bn (+ skip) -> relu.
/// A stride-2 block projects the skip with a 1x1 conv.
class ResidualBlock {
 public:
  ResidualBlock(int in_channels, int out_channels, int stride);

  nn::Tensor forward(const nn::Tensor& x, bool training);
  nn::Tensor backward(const nn::Tensor& grad);
  void collect(std::vector<nn::Param*>& params, std::vector<nn::Tensor*>& buffers);

 private:
  bool projected_;
  nn::Conv2D conv1_;
  nn::BatchNorm bn1_;
  nn::Conv2D conv2_;
  nn::BatchNorm bn2_;
  std::unique_ptr<nn::Conv2D> proj_;  // 1x1 skip projection when shapes change
  nn::Tensor relu1_input_;
  nn::Tensor sum_input_;  // pre-activation of the final ReLU
};

class ResNetLite {
 public:
  explicit ResNetLite(ResNetLiteConfig config = {});

  /// (N, 1, H, W) -> (N, num_classes).
  nn::Tensor forward(const nn::Tensor& images, bool training);
  void backward(const nn::Tensor& grad_scores);
  std::vector<nn::Param*> params();
  std::vector<nn::Tensor*> buffers();
  std::unique_ptr<ResNetLite> clone();

  const ResNetLiteConfig& config() const { return config_; }

 private:
  ResNetLiteConfig config_;
  nn::Conv2D stem_;
  nn::BatchNorm stem_bn_;
  std::vector<std::unique_ptr<ResidualBlock>> blocks_;
  nn::GlobalAvgPool pool_;
  nn::Linear head_;
  nn::Tensor stem_relu_input_;
};

}  // namespace safecross::models
