#include "models/c3d.h"

#include <stdexcept>

#include "models/tensor_ops.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/init.h"

namespace safecross::models {

using nn::Tensor;

C3D::C3D(C3DConfig config) : config_(config) {
  const int c = config.base_channels;
  auto conv = [](int in_c, int out_c) {
    nn::Conv3DConfig cc;
    cc.in_channels = in_c;
    cc.out_channels = out_c;
    cc.kernel_t = 3;
    cc.kernel_s = 3;
    cc.pad_t = 1;
    cc.pad_s = 1;
    return cc;
  };
  // conv1 -> pool (spatial only, as in C3D's first stage) -> conv2 ->
  // pool (temporal+spatial) -> conv3 -> global pool -> SVM scores.
  net_.emplace<nn::Conv3D>(conv(1, c));
  net_.emplace<nn::BatchNorm>(c);
  net_.emplace<nn::ReLU>();
  net_.emplace<nn::MaxPool3D>(1, 2, 1, 2);
  net_.emplace<nn::Conv3D>(conv(c, 2 * c));
  net_.emplace<nn::BatchNorm>(2 * c);
  net_.emplace<nn::ReLU>();
  net_.emplace<nn::MaxPool3D>(2, 2, 2, 2);
  net_.emplace<nn::Conv3D>(conv(2 * c, 2 * c));
  net_.emplace<nn::BatchNorm>(2 * c);
  net_.emplace<nn::ReLU>();
  net_.emplace<nn::GlobalAvgPool>();
  net_.emplace<nn::Linear>(2 * c, config.num_classes);

  safecross::Rng rng(config.init_seed);
  nn::init_params(net_.params(), rng);
}

Tensor C3D::forward(const Tensor& clips, bool training) {
  if (clips.ndim() != 5 || clips.dim(2) != config_.frames) {
    throw std::invalid_argument("C3D: expected (N, 1, " + std::to_string(config_.frames) +
                                ", H, W), got " + clips.shape_str());
  }
  input_shape_.assign(clips.shape().begin(), clips.shape().end());
  const Tensor sub = subsample_time(clips, 2);  // 32 -> 16 frames
  return net_.forward(sub, training);
}

void C3D::backward(const Tensor& grad_scores) {
  net_.backward(grad_scores);  // input grads discarded at the top
}

std::unique_ptr<VideoClassifier> C3D::clone() {
  auto copy = std::make_unique<C3D>(config_);
  nn::copy_param_values(params(), copy->params());
  nn::copy_buffers(buffers(), copy->buffers());
  return copy;
}

}  // namespace safecross::models
