#pragma once
// Temporal Segment Network baseline (Wang et al., ECCV'16), scaled down.
//
// TSN's defining idea: divide the clip into `segments` equal spans,
// sample ONE frame from each, run a shared 2-D CNN backbone on each
// sampled frame, and average the per-frame class scores (the "consensus").
// Implemented by folding segments into the batch axis so the shared
// backbone sees (N * segments, 1, H, W) in a single pass.
//
// Deliberately discards most temporal information — which is exactly why
// it trails SlowFast/C3D on SafeCross data (paper Table IV), where the
// label depends on oncoming-vehicle *motion*.

#include "models/video_classifier.h"
#include "nn/sequential.h"

namespace safecross::models {

struct TSNConfig {
  int num_classes = 2;
  int frames = 32;
  int segments = 3;  // the paper's tsn_r50_1x1x3 config
  int base_channels = 8;
  std::uint64_t init_seed = 23u;
};

class TSN final : public VideoClassifier {
 public:
  explicit TSN(TSNConfig config = {});

  nn::Tensor forward(const nn::Tensor& clips, bool training) override;
  void backward(const nn::Tensor& grad_scores) override;
  std::vector<nn::Param*> params() override { return backbone_.params(); }
  std::vector<nn::Tensor*> buffers() override { return backbone_.buffers(); }
  std::string name() const override { return "tsn"; }
  int num_classes() const override { return config_.num_classes; }
  std::unique_ptr<VideoClassifier> clone() override;

  const TSNConfig& config() const { return config_; }

  /// Center frame index of each segment for a clip of `frames` frames.
  static std::vector<int> segment_indices(int frames, int segments);

 private:
  TSNConfig config_;
  nn::Sequential backbone_;  // (N*segments, 1, H, W) -> (N*segments, K)
  int last_batch_ = 0;
};

}  // namespace safecross::models
