#include "models/inception_lite.h"

#include "models/tensor_ops.h"
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

void relu_backward_inplace(Tensor& grad, const Tensor& pre) {
  for (std::size_t i = 0; i < grad.numel(); ++i) {
    if (pre[i] <= 0.0f) grad[i] = 0.0f;
  }
}

}  // namespace

InceptionBlock::InceptionBlock(int in_channels, int branch_channels)
    : branch_channels_(branch_channels),
      b1x1_(conv_cfg(in_channels, branch_channels, 1, 1, 0)),
      b3x3_(conv_cfg(in_channels, branch_channels, 3, 1, 1)),
      b5x5_(conv_cfg(in_channels, branch_channels, 5, 1, 2)) {}

Tensor InceptionBlock::forward(const Tensor& x, bool training) {
  auto run = [&](Branch& br) {
    Tensor y = br.bn.forward(br.conv.forward(x, training), training);
    br.relu_input = y;
    relu_inplace(y);
    return y;
  };
  const Tensor y1 = run(b1x1_);
  const Tensor y3 = run(b3x3_);
  const Tensor y5 = run(b5x5_);
  return concat_channels(concat_channels(y1, y3), y5);
}

Tensor InceptionBlock::backward(const Tensor& grad) {
  auto [g13, g5] = split_channels(grad, 2 * branch_channels_);
  auto [g1, g3] = split_channels(g13, branch_channels_);
  auto run = [&](Branch& br, Tensor g) {
    relu_backward_inplace(g, br.relu_input);
    return br.conv.backward(br.bn.backward(g));
  };
  Tensor gx = run(b1x1_, std::move(g1));
  gx.add_scaled(run(b3x3_, std::move(g3)), 1.0f);
  gx.add_scaled(run(b5x5_, std::move(g5)), 1.0f);
  return gx;
}

void InceptionBlock::collect(std::vector<nn::Param*>& params,
                             std::vector<nn::Tensor*>& buffers) {
  for (Branch* br : {&b1x1_, &b3x3_, &b5x5_}) {
    for (nn::Param* p : br->conv.params()) params.push_back(p);
    for (nn::Param* p : br->bn.params()) params.push_back(p);
    for (nn::Tensor* b : br->bn.buffers()) buffers.push_back(b);
  }
}

InceptionLite::InceptionLite(InceptionLiteConfig config)
    : config_(config),
      stem_(conv_cfg(1, 2 * config.branch_channels, 3, 2, 1)),
      stem_bn_(2 * config.branch_channels),
      head_(3 * config.branch_channels, config.num_classes) {
  int channels = 2 * config.branch_channels;
  for (int b = 0; b < config.blocks; ++b) {
    blocks_.push_back(std::make_unique<InceptionBlock>(channels, config.branch_channels));
    channels = blocks_.back()->out_channels();
    if (b + 1 < config.blocks) pools_.push_back(std::make_unique<nn::MaxPool2D>(2, 2));
  }
  safecross::Rng rng(config.init_seed);
  nn::init_params(params(), rng);
}

Tensor InceptionLite::forward(const Tensor& images, bool training) {
  Tensor y = stem_bn_.forward(stem_.forward(images, training), training);
  stem_relu_input_ = y;
  relu_inplace(y);
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    y = blocks_[b]->forward(y, training);
    if (b < pools_.size()) y = pools_[b]->forward(y, training);
  }
  return head_.forward(gap_.forward(y, training), training);
}

void InceptionLite::backward(const Tensor& grad_scores) {
  Tensor g = gap_.backward(head_.backward(grad_scores));
  for (std::size_t b = blocks_.size(); b-- > 0;) {
    if (b < pools_.size()) g = pools_[b]->backward(g);
    g = blocks_[b]->backward(g);
  }
  relu_backward_inplace(g, stem_relu_input_);
  stem_.backward(stem_bn_.backward(g));
}

std::vector<nn::Param*> InceptionLite::params() {
  std::vector<nn::Param*> p;
  std::vector<nn::Tensor*> b;
  for (nn::Param* q : stem_.params()) p.push_back(q);
  for (nn::Param* q : stem_bn_.params()) p.push_back(q);
  for (auto& block : blocks_) block->collect(p, b);
  for (nn::Param* q : head_.params()) p.push_back(q);
  return p;
}

std::vector<nn::Tensor*> InceptionLite::buffers() {
  std::vector<nn::Param*> p;
  std::vector<nn::Tensor*> b;
  for (nn::Tensor* q : stem_bn_.buffers()) b.push_back(q);
  for (auto& block : blocks_) block->collect(p, b);
  return b;
}

std::unique_ptr<InceptionLite> InceptionLite::clone() {
  auto copy = std::make_unique<InceptionLite>(config_);
  nn::copy_param_values(params(), copy->params());
  nn::copy_buffers(buffers(), copy->buffers());
  return copy;
}

}  // namespace safecross::models
