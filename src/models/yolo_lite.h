#pragma once
// YOLO-lite: a single-shot grid detector standing in for YOLOv3 in the
// detection-method comparison (Table II / Fig. 8).
//
// YOLOv1-style formulation: the image is divided into a GH x GW cell
// grid; a fully-convolutional backbone predicts, per cell, an objectness
// logit and a box (center offset within the cell via sigmoid, log-scale
// width/height relative to cell size). The cell containing a ground-truth
// box center is "responsible" for it; all other cells are pushed toward
// zero objectness with a reduced weight (lambda_noobj).

#include <vector>

#include "nn/conv2d.h"
#include "nn/sequential.h"
#include "vision/image.h"

namespace safecross::models {

/// A detection in pixel coordinates (box center + size).
struct YoloBox {
  float cx = 0.0f;
  float cy = 0.0f;
  float w = 0.0f;
  float h = 0.0f;
  float confidence = 0.0f;
};

struct YoloLiteConfig {
  int in_height = 144;
  int in_width = 256;
  int base_channels = 12;
  float lambda_coord = 5.0f;
  float lambda_noobj = 0.5f;
  std::uint64_t init_seed = 24u;

  /// Three stride-2 stages -> grid cells of 8x8 pixels.
  int downscale() const { return 8; }
  int grid_h() const { return in_height / downscale(); }
  int grid_w() const { return in_width / downscale(); }
};

class YoloLite {
 public:
  explicit YoloLite(YoloLiteConfig config = {});

  /// (N, 1, H, W) frames -> (N, 5, GH, GW) raw predictions
  /// (channel 0 objectness logit, 1-2 center offsets, 3-4 log sizes).
  nn::Tensor forward(const nn::Tensor& frames, bool training);
  void backward(const nn::Tensor& grad);
  std::vector<nn::Param*> params() { return net_.params(); }
  std::vector<nn::Tensor*> buffers() { return net_.buffers(); }

  const YoloLiteConfig& config() const { return config_; }

  /// Run inference on one frame and decode boxes above the confidence
  /// threshold (greedy IoU-based non-maximum suppression applied).
  std::vector<YoloBox> detect(const vision::Image& frame, float conf_threshold = 0.5f);

 private:
  YoloLiteConfig config_;
  nn::Sequential net_;
};

/// YOLOv1-style composite loss over a batch.
class YoloLoss {
 public:
  explicit YoloLoss(const YoloLiteConfig& config) : config_(config) {}

  /// `truth[i]` lists the ground-truth boxes (pixel coords) of batch item i.
  float forward(const nn::Tensor& pred, const std::vector<std::vector<YoloBox>>& truth);
  nn::Tensor grad() const { return grad_; }

 private:
  YoloLiteConfig config_;
  nn::Tensor grad_;
};

/// Intersection-over-union of two boxes.
float iou(const YoloBox& a, const YoloBox& b);

}  // namespace safecross::models
