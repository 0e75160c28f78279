#include "models/tsn.h"

#include <stdexcept>

#include "models/tensor_ops.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace safecross::models {

using nn::Tensor;

std::vector<int> TSN::segment_indices(int frames, int segments) {
  std::vector<int> idx;
  idx.reserve(segments);
  for (int s = 0; s < segments; ++s) {
    idx.push_back((2 * s + 1) * frames / (2 * segments));  // segment centers
  }
  return idx;
}

TSN::TSN(TSNConfig config) : config_(config) {
  const int c = config.base_channels;
  auto conv = [](int in_c, int out_c, int stride) {
    nn::Conv2DConfig cc;
    cc.in_channels = in_c;
    cc.out_channels = out_c;
    cc.kernel = 3;
    cc.stride = stride;
    cc.padding = 1;
    return cc;
  };
  backbone_.emplace<nn::Conv2D>(conv(1, c, 2));
  backbone_.emplace<nn::BatchNorm>(c);
  backbone_.emplace<nn::ReLU>();
  backbone_.emplace<nn::Conv2D>(conv(c, 2 * c, 2));
  backbone_.emplace<nn::BatchNorm>(2 * c);
  backbone_.emplace<nn::ReLU>();
  backbone_.emplace<nn::GlobalAvgPool>();
  backbone_.emplace<nn::Linear>(2 * c, config.num_classes);

  safecross::Rng rng(config.init_seed);
  nn::init_params(backbone_.params(), rng);
}

Tensor TSN::forward(const Tensor& clips, bool training) {
  if (clips.ndim() != 5 || clips.dim(2) != config_.frames) {
    throw std::invalid_argument("TSN: expected (N, 1, " + std::to_string(config_.frames) +
                                ", H, W), got " + clips.shape_str());
  }
  const int n = clips.dim(0);
  const int h = clips.dim(3), w = clips.dim(4);
  last_batch_ = n;
  const int segs = config_.segments;

  // Sample one frame per segment, fold segments into the batch axis.
  const Tensor sampled = select_frames(clips, segment_indices(config_.frames, segs));
  // (N, 1, segs, H, W) -> (N*segs, 1, H, W): for channel count 1 the two
  // layouts are already identical in memory.
  const Tensor folded = sampled.reshaped({n * segs, 1, h, w});

  const Tensor per_frame = backbone_.forward(folded, training);  // (N*segs, K)

  // Consensus: average scores across segments.
  const int k = config_.num_classes;
  Tensor out({n, k}, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int s = 0; s < segs; ++s) {
      for (int j = 0; j < k; ++j) {
        out[static_cast<std::size_t>(i) * k + j] +=
            per_frame[(static_cast<std::size_t>(i) * segs + s) * k + j];
      }
    }
  }
  out.scale(1.0f / static_cast<float>(segs));
  return out;
}

void TSN::backward(const Tensor& grad_scores) {
  const int n = last_batch_;
  const int segs = config_.segments;
  const int k = config_.num_classes;
  Tensor g({n * segs, k});
  for (int i = 0; i < n; ++i) {
    for (int s = 0; s < segs; ++s) {
      for (int j = 0; j < k; ++j) {
        g[(static_cast<std::size_t>(i) * segs + s) * k + j] =
            grad_scores[static_cast<std::size_t>(i) * k + j] / static_cast<float>(segs);
      }
    }
  }
  backbone_.backward(g);  // frame-selection grads discarded at the top
}

std::unique_ptr<VideoClassifier> TSN::clone() {
  auto copy = std::make_unique<TSN>(config_);
  nn::copy_param_values(params(), copy->params());
  nn::copy_buffers(buffers(), copy->buffers());
  return copy;
}

}  // namespace safecross::models
