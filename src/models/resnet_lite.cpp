#include "models/resnet_lite.h"

#include "nn/init.h"

namespace safecross::models {

using nn::Tensor;

namespace {

nn::Conv2DConfig conv_cfg(int in_c, int out_c, int kernel, int stride, int pad) {
  nn::Conv2DConfig c;
  c.in_channels = in_c;
  c.out_channels = out_c;
  c.kernel = kernel;
  c.stride = stride;
  c.padding = pad;
  return c;
}

void relu_inplace(Tensor& t) {
  for (std::size_t i = 0; i < t.numel(); ++i) {
    if (t[i] < 0.0f) t[i] = 0.0f;
  }
}

void relu_backward_inplace(Tensor& grad, const Tensor& pre_activation) {
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    if (pre_activation[i] <= 0.0f) grad[i] = 0.0f;
  }
}

}  // namespace

ResidualBlock::ResidualBlock(int in_channels, int out_channels, int stride)
    : projected_(stride != 1 || in_channels != out_channels),
      conv1_(conv_cfg(in_channels, out_channels, 3, stride, 1)),
      bn1_(out_channels),
      conv2_(conv_cfg(out_channels, out_channels, 3, 1, 1)),
      bn2_(out_channels) {
  if (projected_) {
    proj_ = std::make_unique<nn::Conv2D>(conv_cfg(in_channels, out_channels, 1, stride, 0));
  }
}

Tensor ResidualBlock::forward(const Tensor& x, bool training) {
  Tensor y = bn1_.forward(conv1_.forward(x, training), training);
  relu1_input_ = y;
  relu_inplace(y);
  y = bn2_.forward(conv2_.forward(y, training), training);
  const Tensor skip = projected_ ? proj_->forward(x, training) : x;
  y.add_scaled(skip, 1.0f);
  sum_input_ = y;
  relu_inplace(y);
  return y;
}

Tensor ResidualBlock::backward(const Tensor& grad) {
  Tensor g = grad;
  relu_backward_inplace(g, sum_input_);
  // The post-sum gradient flows into both the residual branch and the skip.
  Tensor branch = conv2_.backward(bn2_.backward(g));
  relu_backward_inplace(branch, relu1_input_);
  Tensor gx = conv1_.backward(bn1_.backward(branch));
  if (projected_) {
    gx.add_scaled(proj_->backward(g), 1.0f);
  } else {
    gx.add_scaled(g, 1.0f);
  }
  return gx;
}

void ResidualBlock::collect(std::vector<nn::Param*>& params, std::vector<nn::Tensor*>& buffers) {
  for (nn::Param* p : conv1_.params()) params.push_back(p);
  for (nn::Param* p : bn1_.params()) params.push_back(p);
  for (nn::Tensor* b : bn1_.buffers()) buffers.push_back(b);
  for (nn::Param* p : conv2_.params()) params.push_back(p);
  for (nn::Param* p : bn2_.params()) params.push_back(p);
  for (nn::Tensor* b : bn2_.buffers()) buffers.push_back(b);
  if (projected_) {
    for (nn::Param* p : proj_->params()) params.push_back(p);
  }
}

ResNetLite::ResNetLite(ResNetLiteConfig config)
    : config_(config),
      stem_(conv_cfg(1, config.base_channels, 3, 2, 1)),
      stem_bn_(config.base_channels),
      head_(2 * config.base_channels, config.num_classes) {
  const int c = config.base_channels;
  for (int b = 0; b < config.blocks_per_stage; ++b) {
    blocks_.push_back(std::make_unique<ResidualBlock>(c, c, 1));
  }
  blocks_.push_back(std::make_unique<ResidualBlock>(c, 2 * c, 2));
  for (int b = 1; b < config.blocks_per_stage; ++b) {
    blocks_.push_back(std::make_unique<ResidualBlock>(2 * c, 2 * c, 1));
  }
  safecross::Rng rng(config.init_seed);
  nn::init_params(params(), rng);
}

Tensor ResNetLite::forward(const Tensor& images, bool training) {
  Tensor y = stem_bn_.forward(stem_.forward(images, training), training);
  stem_relu_input_ = y;
  relu_inplace(y);
  for (auto& block : blocks_) y = block->forward(y, training);
  return head_.forward(pool_.forward(y, training), training);
}

void ResNetLite::backward(const Tensor& grad_scores) {
  Tensor g = pool_.backward(head_.backward(grad_scores));
  for (auto it = blocks_.rbegin(); it != blocks_.rend(); ++it) g = (*it)->backward(g);
  relu_backward_inplace(g, stem_relu_input_);
  stem_.backward(stem_bn_.backward(g));
}

std::vector<nn::Param*> ResNetLite::params() {
  std::vector<nn::Param*> p;
  std::vector<nn::Tensor*> b;
  for (nn::Param* q : stem_.params()) p.push_back(q);
  for (nn::Param* q : stem_bn_.params()) p.push_back(q);
  for (auto& block : blocks_) block->collect(p, b);
  for (nn::Param* q : head_.params()) p.push_back(q);
  return p;
}

std::vector<nn::Tensor*> ResNetLite::buffers() {
  std::vector<nn::Param*> p;
  std::vector<nn::Tensor*> b;
  for (nn::Tensor* q : stem_bn_.buffers()) b.push_back(q);
  for (auto& block : blocks_) block->collect(p, b);
  return b;
}

std::unique_ptr<ResNetLite> ResNetLite::clone() {
  auto copy = std::make_unique<ResNetLite>(config_);
  nn::copy_param_values(params(), copy->params());
  nn::copy_buffers(buffers(), copy->buffers());
  return copy;
}

}  // namespace safecross::models
