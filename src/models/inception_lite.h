#pragma once
// Inception-lite: genuine multi-branch inception blocks over (N, 1, H, W)
// images — per-block parallel 1x1 / 3x3 / 5x5 branches whose outputs are
// channel-concatenated, with manual backward that splits the gradient
// back into the branches. The third real image workload for the
// switching engine, and a structural test bed for branch-and-concat
// graphs.

#include <memory>

#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace safecross::models {

struct InceptionLiteConfig {
  int num_classes = 3;
  int branch_channels = 4;  // per-branch width inside each block
  int blocks = 2;
  std::uint64_t init_seed = 26u;
};

/// One inception block: three parallel conv paths concatenated on the
/// channel axis. Output channels = 3 * branch_channels.
class InceptionBlock {
 public:
  InceptionBlock(int in_channels, int branch_channels);

  nn::Tensor forward(const nn::Tensor& x, bool training);
  nn::Tensor backward(const nn::Tensor& grad);
  void collect(std::vector<nn::Param*>& params, std::vector<nn::Tensor*>& buffers);

  int out_channels() const { return 3 * branch_channels_; }

 private:
  struct Branch {
    nn::Conv2D conv;
    nn::BatchNorm bn;
    nn::Tensor relu_input;

    Branch(nn::Conv2DConfig cfg) : conv(cfg), bn(cfg.out_channels) {}
  };

  int branch_channels_;
  Branch b1x1_;
  Branch b3x3_;
  Branch b5x5_;
};

class InceptionLite {
 public:
  explicit InceptionLite(InceptionLiteConfig config = {});

  /// (N, 1, H, W) -> (N, num_classes).
  nn::Tensor forward(const nn::Tensor& images, bool training);
  void backward(const nn::Tensor& grad_scores);
  std::vector<nn::Param*> params();
  std::vector<nn::Tensor*> buffers();
  std::unique_ptr<InceptionLite> clone();

  const InceptionLiteConfig& config() const { return config_; }

 private:
  InceptionLiteConfig config_;
  nn::Conv2D stem_;
  nn::BatchNorm stem_bn_;
  std::vector<std::unique_ptr<InceptionBlock>> blocks_;
  std::vector<std::unique_ptr<nn::MaxPool2D>> pools_;  // between blocks
  nn::GlobalAvgPool gap_;
  nn::Linear head_;
  nn::Tensor stem_relu_input_;
};

}  // namespace safecross::models
