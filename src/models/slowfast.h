#pragma once
// SlowFast video classification network (Feichtenhofer et al., ICCV'19),
// scaled to SafeCross's small occupancy-grid inputs.
//
// Structure kept from the paper (its Fig. 5):
//   * Slow pathway: low frame rate — every alpha-th frame — and most of
//     the channel capacity; learns spatial semantics.
//   * Fast pathway: every frame, beta-fraction of the channels; learns
//     motion.
//   * Lateral connections: time-strided Conv3D projects fast features to
//     the slow pathway's temporal resolution, channel-concatenated into
//     the slow pathway after each stage.
//   * Head: global average pool of both pathways, concatenated, linear
//     classifier.
//
// `use_lateral = false` severs the lateral connections for the ablation
// bench.

#include "models/video_classifier.h"
#include "nn/batchnorm.h"
#include "nn/conv3d.h"
#include "nn/dropout.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace safecross::models {

struct SlowFastConfig {
  int num_classes = 2;
  int frames = 32;       // T of the input clip (the paper's segment length)
  int alpha = 8;         // slow pathway temporal stride (32/8 = 4 slow frames)
  int slow_channels = 8;     // stage-1 slow width
  int fast_channels = 2;     // stage-1 fast width (≈ beta * slow)
  bool use_lateral = true;
  float dropout = 0.3f;
  std::uint64_t init_seed = 21u;
};

/// Conv3D + BatchNorm + ReLU block with manual forward/backward.
struct ConvBNReLU3D {
  nn::Conv3D conv;
  nn::BatchNorm bn;

  explicit ConvBNReLU3D(nn::Conv3DConfig c) : conv(c), bn(c.out_channels) {}

  nn::Tensor forward(const nn::Tensor& x, bool training);
  nn::Tensor backward(const nn::Tensor& grad);
  void collect(std::vector<nn::Param*>& params, std::vector<nn::Tensor*>& buffers);

 private:
  nn::Tensor relu_input_;
};

class SlowFast final : public VideoClassifier {
 public:
  explicit SlowFast(SlowFastConfig config = {});

  nn::Tensor forward(const nn::Tensor& clips, bool training) override;
  void backward(const nn::Tensor& grad_scores) override;
  std::vector<nn::Param*> params() override;
  std::vector<nn::Tensor*> buffers() override;
  std::string name() const override { return "slowfast"; }
  int num_classes() const override { return config_.num_classes; }
  std::unique_ptr<VideoClassifier> clone() override;

  const SlowFastConfig& config() const { return config_; }

 private:
  SlowFastConfig config_;

  ConvBNReLU3D slow_stem_;
  ConvBNReLU3D slow_stage2_;
  ConvBNReLU3D fast_stem_;
  ConvBNReLU3D fast_stage2_;
  nn::Conv3D lateral1_;  // fast stem out -> slow temporal resolution
  nn::Conv3D lateral2_;  // fast stage2 out -> slow temporal resolution
  nn::GlobalAvgPool pool_slow_;
  nn::GlobalAvgPool pool_fast_;
  nn::Dropout dropout_;
  nn::Linear head_;

  // Forward-state needed by backward.
  std::vector<int> input_shape_;
  int slow_feat_channels_ = 0;
};

}  // namespace safecross::models
