#include "models/slowfast.h"

#include <stdexcept>

#include "models/tensor_ops.h"
#include "nn/init.h"

namespace safecross::models {

using nn::Tensor;

nn::Tensor ConvBNReLU3D::forward(const nn::Tensor& x, bool training) {
  Tensor y = conv.forward(x, training);
  // Backward's ReLU mask; an inference forward keeps nothing, and
  // normalizes the conv output in place.
  if (training) {
    y = bn.forward(y, true);
    relu_input_ = y;
  } else {
    y = bn.infer(std::move(y));
    relu_input_ = Tensor();
  }
  for (std::size_t i = 0; i < y.numel(); ++i) {
    if (y[i] < 0.0f) y[i] = 0.0f;
  }
  return y;
}

nn::Tensor ConvBNReLU3D::backward(const nn::Tensor& grad) {
  if (relu_input_.numel() != grad.numel()) {
    throw std::logic_error(
        "ConvBNReLU3D: backward requires a preceding forward with training=true "
        "(inference forwards keep no backward state)");
  }
  Tensor g = grad;
  for (std::size_t i = 0; i < g.numel(); ++i) {
    if (relu_input_[i] <= 0.0f) g[i] = 0.0f;
  }
  g = bn.backward(g);
  return conv.backward(g);
}

void ConvBNReLU3D::collect(std::vector<nn::Param*>& params, std::vector<nn::Tensor*>& buffers) {
  for (nn::Param* p : conv.params()) params.push_back(p);
  for (nn::Param* p : bn.params()) params.push_back(p);
  for (nn::Tensor* b : bn.buffers()) buffers.push_back(b);
}

namespace {

nn::Conv3DConfig conv_cfg(int in_c, int out_c, int kt, int ks, int st, int ss, int pt,
                          int ps) {
  nn::Conv3DConfig c;
  c.in_channels = in_c;
  c.out_channels = out_c;
  c.kernel_t = kt;
  c.kernel_s = ks;
  c.stride_t = st;
  c.stride_s = ss;
  c.pad_t = pt;
  c.pad_s = ps;
  return c;
}

}  // namespace

SlowFast::SlowFast(SlowFastConfig config)
    : config_(config),
      // Slow pathway: temporal kernel 1 in the stem (the SlowFast paper's
      // "no temporal convolution before res4 in the slow path" insight,
      // scaled down), spatial stride 2.
      slow_stem_(conv_cfg(1, config.slow_channels, 1, 3, 1, 2, 0, 1)),
      slow_stage2_(conv_cfg(
          config.use_lateral ? config.slow_channels + 2 * config.fast_channels
                             : config.slow_channels,
          2 * config.slow_channels, 3, 3, 1, 2, 1, 1)),
      // Fast pathway: long temporal kernel, thin channels.
      fast_stem_(conv_cfg(1, config.fast_channels, 5, 3, 1, 2, 2, 1)),
      fast_stage2_(conv_cfg(config.fast_channels, 2 * config.fast_channels, 3, 3, 1, 2, 1, 1)),
      // Lateral: time-strided conv, fast temporal resolution -> slow.
      lateral1_(conv_cfg(config.fast_channels, 2 * config.fast_channels, config.alpha, 1,
                         config.alpha, 1, 0, 0)),
      lateral2_(conv_cfg(2 * config.fast_channels, 4 * config.fast_channels, config.alpha, 1,
                         config.alpha, 1, 0, 0)),
      dropout_(config.dropout, config.init_seed ^ 0xD0u),
      head_((config.use_lateral ? 2 * config.slow_channels + 4 * config.fast_channels
                                : 2 * config.slow_channels) +
                2 * config.fast_channels,
            config.num_classes) {
  if (config.frames % config.alpha != 0) {
    throw std::invalid_argument("SlowFast: frames must be a multiple of alpha");
  }
  slow_feat_channels_ =
      config.use_lateral ? 2 * config_.slow_channels + 4 * config_.fast_channels
                         : 2 * config_.slow_channels;
  safecross::Rng rng(config.init_seed);
  nn::init_params(params(), rng);
}

Tensor SlowFast::forward(const Tensor& clips, bool training) {
  if (clips.ndim() != 5 || clips.dim(1) != 1 || clips.dim(2) != config_.frames) {
    throw std::invalid_argument("SlowFast: expected (N, 1, " + std::to_string(config_.frames) +
                                ", H, W), got " + clips.shape_str());
  }
  input_shape_.assign(clips.shape().begin(), clips.shape().end());

  const Tensor slow_in = subsample_time(clips, config_.alpha);
  Tensor s = slow_stem_.forward(slow_in, training);
  Tensor f = fast_stem_.forward(clips, training);

  if (config_.use_lateral) {
    const Tensor l1 = lateral1_.forward(f, training);
    s = concat_channels(s, l1);
  }
  Tensor s2 = slow_stage2_.forward(s, training);
  Tensor f2 = fast_stage2_.forward(f, training);
  if (config_.use_lateral) {
    const Tensor l2 = lateral2_.forward(f2, training);
    s2 = concat_channels(s2, l2);
  }

  const Tensor ps = pool_slow_.forward(s2, training);
  const Tensor pf = pool_fast_.forward(f2, training);
  Tensor feat = concat_channels(ps, pf);
  feat = dropout_.forward(feat, training);
  return head_.forward(feat, training);
}

void SlowFast::backward(const Tensor& grad_scores) {
  Tensor g = head_.backward(grad_scores);
  g = dropout_.backward(g);
  auto [gps, gpf] = split_channels(g, slow_feat_channels_);

  Tensor g_s2c = pool_slow_.backward(gps);
  Tensor g_f2 = pool_fast_.backward(gpf);

  Tensor g_s2 = std::move(g_s2c);
  if (config_.use_lateral) {
    auto [gs, gl2] = split_channels(g_s2, 2 * config_.slow_channels);
    g_s2 = std::move(gs);
    g_f2.add_scaled(lateral2_.backward(gl2), 1.0f);
  }

  Tensor g_f1 = fast_stage2_.backward(g_f2);
  Tensor g_s1c = slow_stage2_.backward(g_s2);

  Tensor g_s1 = std::move(g_s1c);
  if (config_.use_lateral) {
    auto [gs, gl1] = split_channels(g_s1, config_.slow_channels);
    g_s1 = std::move(gs);
    g_f1.add_scaled(lateral1_.backward(gl1), 1.0f);
  }

  fast_stem_.backward(g_f1);
  slow_stem_.backward(g_s1);
  // Input gradients discarded: clips are the top of the graph.
}

std::vector<nn::Param*> SlowFast::params() {
  std::vector<nn::Param*> p;
  std::vector<nn::Tensor*> b;
  slow_stem_.collect(p, b);
  slow_stage2_.collect(p, b);
  fast_stem_.collect(p, b);
  fast_stage2_.collect(p, b);
  if (config_.use_lateral) {
    for (nn::Param* q : lateral1_.params()) p.push_back(q);
    for (nn::Param* q : lateral2_.params()) p.push_back(q);
  }
  for (nn::Param* q : head_.params()) p.push_back(q);
  return p;
}

std::vector<nn::Tensor*> SlowFast::buffers() {
  std::vector<nn::Param*> p;
  std::vector<nn::Tensor*> b;
  slow_stem_.collect(p, b);
  slow_stage2_.collect(p, b);
  fast_stem_.collect(p, b);
  fast_stage2_.collect(p, b);
  return b;
}

std::unique_ptr<VideoClassifier> SlowFast::clone() {
  auto copy = std::make_unique<SlowFast>(config_);
  nn::copy_param_values(params(), copy->params());
  nn::copy_buffers(buffers(), copy->buffers());
  return copy;
}

}  // namespace safecross::models
