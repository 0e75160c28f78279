#include "models/yolo_lite.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/init.h"

namespace safecross::models {

using nn::Tensor;

namespace {

float sigmoid(float x) { return 1.0f / (1.0f + std::exp(-x)); }

}  // namespace

float iou(const YoloBox& a, const YoloBox& b) {
  const float ax0 = a.cx - a.w / 2, ax1 = a.cx + a.w / 2;
  const float ay0 = a.cy - a.h / 2, ay1 = a.cy + a.h / 2;
  const float bx0 = b.cx - b.w / 2, bx1 = b.cx + b.w / 2;
  const float by0 = b.cy - b.h / 2, by1 = b.cy + b.h / 2;
  const float ix = std::max(0.0f, std::min(ax1, bx1) - std::max(ax0, bx0));
  const float iy = std::max(0.0f, std::min(ay1, by1) - std::max(ay0, by0));
  const float inter = ix * iy;
  const float uni = a.w * a.h + b.w * b.h - inter;
  return uni > 0.0f ? inter / uni : 0.0f;
}

YoloLite::YoloLite(YoloLiteConfig config) : config_(config) {
  if (config.in_height % config.downscale() != 0 || config.in_width % config.downscale() != 0) {
    throw std::invalid_argument("YoloLite: input must be divisible by the grid downscale");
  }
  const int c = config.base_channels;
  auto conv = [](int in_c, int out_c, int kernel, int stride, int pad) {
    nn::Conv2DConfig cc;
    cc.in_channels = in_c;
    cc.out_channels = out_c;
    cc.kernel = kernel;
    cc.stride = stride;
    cc.padding = pad;
    return cc;
  };
  net_.emplace<nn::Conv2D>(conv(1, c, 3, 2, 1));
  net_.emplace<nn::BatchNorm>(c);
  net_.emplace<nn::ReLU>();
  net_.emplace<nn::Conv2D>(conv(c, 2 * c, 3, 2, 1));
  net_.emplace<nn::BatchNorm>(2 * c);
  net_.emplace<nn::ReLU>();
  net_.emplace<nn::Conv2D>(conv(2 * c, 2 * c, 3, 2, 1));
  net_.emplace<nn::BatchNorm>(2 * c);
  net_.emplace<nn::ReLU>();
  net_.emplace<nn::Conv2D>(conv(2 * c, 5, 1, 1, 0));  // detection head

  safecross::Rng rng(config.init_seed);
  nn::init_params(net_.params(), rng);
}

Tensor YoloLite::forward(const Tensor& frames, bool training) {
  // Fully convolutional: any resolution divisible by the grid downscale
  // works; config.in_* is the canonical training size.
  if (frames.ndim() != 4 || frames.dim(1) != 1 || frames.dim(2) % config_.downscale() != 0 ||
      frames.dim(3) % config_.downscale() != 0) {
    throw std::invalid_argument("YoloLite: expected (N, 1, H, W) with H, W divisible by " +
                                std::to_string(config_.downscale()) + ", got " +
                                frames.shape_str());
  }
  return net_.forward(frames, training);
}

void YoloLite::backward(const Tensor& grad) { net_.backward(grad); }

std::vector<YoloBox> YoloLite::detect(const vision::Image& frame, float conf_threshold) {
  // Run at the frame's native resolution when the grid divides it;
  // otherwise resize to the canonical training size.
  vision::Image scaled = frame;
  if (frame.width() % config_.downscale() != 0 || frame.height() % config_.downscale() != 0) {
    scaled = frame.resized_area(config_.in_width, config_.in_height);
  }
  Tensor input({1, 1, scaled.height(), scaled.width()});
  std::copy(scaled.data(), scaled.data() + scaled.size(), input.data());

  const Tensor pred = forward(input, /*training=*/false);
  const int gh = scaled.height() / config_.downscale();
  const int gw = scaled.width() / config_.downscale();
  const float cell = static_cast<float>(config_.downscale());
  const std::size_t plane = static_cast<std::size_t>(gh) * gw;

  std::vector<YoloBox> boxes;
  for (int gy = 0; gy < gh; ++gy) {
    for (int gx = 0; gx < gw; ++gx) {
      const std::size_t i = static_cast<std::size_t>(gy) * gw + gx;
      const float conf = sigmoid(pred[0 * plane + i]);
      if (conf < conf_threshold) continue;
      YoloBox b;
      b.confidence = conf;
      b.cx = (static_cast<float>(gx) + sigmoid(pred[1 * plane + i])) * cell;
      b.cy = (static_cast<float>(gy) + sigmoid(pred[2 * plane + i])) * cell;
      b.w = std::exp(std::clamp(pred[3 * plane + i], -4.0f, 4.0f)) * cell;
      b.h = std::exp(std::clamp(pred[4 * plane + i], -4.0f, 4.0f)) * cell;
      boxes.push_back(b);
    }
  }

  // Greedy NMS.
  std::sort(boxes.begin(), boxes.end(),
            [](const YoloBox& a, const YoloBox& b) { return a.confidence > b.confidence; });
  std::vector<YoloBox> kept;
  for (const YoloBox& b : boxes) {
    bool suppressed = false;
    for (const YoloBox& k : kept) {
      if (iou(b, k) > 0.4f) {
        suppressed = true;
        break;
      }
    }
    if (!suppressed) kept.push_back(b);
  }
  return kept;
}

float YoloLoss::forward(const Tensor& pred, const std::vector<std::vector<YoloBox>>& truth) {
  const int n = pred.dim(0);
  if (static_cast<std::size_t>(n) != truth.size() || pred.ndim() != 4 || pred.dim(1) != 5) {
    throw std::invalid_argument("YoloLoss: prediction/truth mismatch");
  }
  const int gh = pred.dim(2);
  const int gw = pred.dim(3);
  const float cell = static_cast<float>(config_.downscale());
  const std::size_t plane = static_cast<std::size_t>(gh) * gw;

  grad_ = Tensor::zeros_like(pred);
  double loss = 0.0;
  for (int bi = 0; bi < n; ++bi) {
    const float* p = pred.data() + static_cast<std::size_t>(bi) * 5 * plane;
    float* g = grad_.data() + static_cast<std::size_t>(bi) * 5 * plane;

    // Mark responsible cells and their targets.
    std::vector<int> responsible(plane, -1);
    for (std::size_t t = 0; t < truth[bi].size(); ++t) {
      const YoloBox& box = truth[bi][t];
      const int gx = std::clamp(static_cast<int>(box.cx / cell), 0, gw - 1);
      const int gy = std::clamp(static_cast<int>(box.cy / cell), 0, gh - 1);
      responsible[static_cast<std::size_t>(gy) * gw + gx] = static_cast<int>(t);
    }

    for (std::size_t i = 0; i < plane; ++i) {
      const float conf = sigmoid(p[0 * plane + i]);
      if (responsible[i] >= 0) {
        const YoloBox& box = truth[bi][static_cast<std::size_t>(responsible[i])];
        const int gx = static_cast<int>(i) % gw;
        const int gy = static_cast<int>(i) / gw;
        // Objectness toward 1 (squared error on the sigmoid; chain the
        // sigmoid derivative into the logit gradient).
        const float derr = conf - 1.0f;
        loss += derr * derr;
        g[0 * plane + i] += 2.0f * derr * conf * (1.0f - conf);
        // Box regression.
        const float tx = box.cx / cell - static_cast<float>(gx);
        const float ty = box.cy / cell - static_cast<float>(gy);
        const float sx = sigmoid(p[1 * plane + i]);
        const float sy = sigmoid(p[2 * plane + i]);
        const float dw = p[3 * plane + i] - std::log(std::max(box.w / cell, 1e-3f));
        const float dh = p[4 * plane + i] - std::log(std::max(box.h / cell, 1e-3f));
        loss += config_.lambda_coord *
                ((sx - tx) * (sx - tx) + (sy - ty) * (sy - ty) + dw * dw + dh * dh);
        g[1 * plane + i] += config_.lambda_coord * 2.0f * (sx - tx) * sx * (1.0f - sx);
        g[2 * plane + i] += config_.lambda_coord * 2.0f * (sy - ty) * sy * (1.0f - sy);
        g[3 * plane + i] += config_.lambda_coord * 2.0f * dw;
        g[4 * plane + i] += config_.lambda_coord * 2.0f * dh;
      } else {
        // Objectness toward 0 at reduced weight.
        loss += config_.lambda_noobj * conf * conf;
        g[0 * plane + i] += config_.lambda_noobj * 2.0f * conf * conf * (1.0f - conf);
      }
    }
  }
  const float scale = 1.0f / static_cast<float>(n);
  grad_.scale(scale);
  return static_cast<float>(loss * scale);
}

}  // namespace safecross::models
