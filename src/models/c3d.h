#pragma once
// C3D baseline (Tran et al., ICCV'15), scaled down: a stack of 3x3x3
// Conv3D + ReLU + MaxPool3D stages over a 16-frame clip, with a linear
// SVM head (the paper: "C3D ... uses SVM to classify video" — train it
// with nn::MulticlassHinge).
//
// Input clips are (N, 1, 32, H, W); C3D takes every second frame
// (16x1x1 sampling, mirroring the paper's c3d_sports1m_16x1x1 config).

#include "models/video_classifier.h"
#include "nn/conv3d.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace safecross::models {

struct C3DConfig {
  int num_classes = 2;
  int frames = 32;       // input clip length; internally strided to 16
  int base_channels = 8;
  std::uint64_t init_seed = 22u;
};

class C3D final : public VideoClassifier {
 public:
  explicit C3D(C3DConfig config = {});

  nn::Tensor forward(const nn::Tensor& clips, bool training) override;
  void backward(const nn::Tensor& grad_scores) override;
  std::vector<nn::Param*> params() override { return net_.params(); }
  std::vector<nn::Tensor*> buffers() override { return net_.buffers(); }
  std::string name() const override { return "c3d"; }
  int num_classes() const override { return config_.num_classes; }
  std::unique_ptr<VideoClassifier> clone() override;

  const C3DConfig& config() const { return config_; }

 private:
  C3DConfig config_;
  nn::Sequential net_;
  std::vector<int> input_shape_;
};

}  // namespace safecross::models
