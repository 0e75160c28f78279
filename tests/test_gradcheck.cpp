// Numerical gradient checks for every trainable layer and for the full
// model graphs — the single most load-bearing correctness test of the nn
// substrate: a silent backward bug would corrupt every accuracy table.

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "models/c3d.h"
#include "models/slowfast.h"
#include "models/tsn.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/conv3d.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace safecross {
namespace {

using nn::Tensor;
using testing::check_gradients;
using testing::random_tensor;

template <typename L>
void check_layer(L& layer, Tensor input, double tol = 5e-2) {
  check_gradients(
      [&](const Tensor& x) { return layer.forward(x, true); },
      [&](const Tensor& g) { return layer.backward(g); }, layer.params(), std::move(input),
      1e-3, tol);
}

TEST(GradCheck, Linear) {
  nn::Linear layer(6, 4);
  Rng rng(1);
  nn::init_params(layer.params(), rng);
  check_layer(layer, random_tensor({3, 6}, 2));
}

TEST(GradCheck, LinearNoBias) {
  nn::Linear layer(5, 3, /*bias=*/false);
  Rng rng(3);
  nn::init_params(layer.params(), rng);
  check_layer(layer, random_tensor({2, 5}, 4));
}

TEST(GradCheck, Conv2D) {
  nn::Conv2DConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 3;
  cfg.kernel = 3;
  cfg.stride = 1;
  cfg.padding = 1;
  nn::Conv2D layer(cfg);
  Rng rng(5);
  nn::init_params(layer.params(), rng);
  check_layer(layer, random_tensor({2, 2, 5, 6}, 6));
}

TEST(GradCheck, Conv2DStridedNoPad) {
  nn::Conv2DConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 2;
  cfg.kernel = 3;
  cfg.stride = 2;
  cfg.padding = 0;
  nn::Conv2D layer(cfg);
  Rng rng(7);
  nn::init_params(layer.params(), rng);
  check_layer(layer, random_tensor({1, 1, 7, 9}, 8));
}

TEST(GradCheck, Conv3D) {
  nn::Conv3DConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 2;
  cfg.kernel_t = 3;
  cfg.kernel_s = 3;
  cfg.pad_t = 1;
  cfg.pad_s = 1;
  nn::Conv3D layer(cfg);
  Rng rng(9);
  nn::init_params(layer.params(), rng);
  check_layer(layer, random_tensor({1, 2, 4, 5, 5}, 10));
}

TEST(GradCheck, Conv3DTimeStrided) {
  // The SlowFast lateral-connection geometry: kt = stride_t, no padding.
  nn::Conv3DConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 2;
  cfg.kernel_t = 4;
  cfg.kernel_s = 1;
  cfg.stride_t = 4;
  cfg.pad_t = 0;
  cfg.pad_s = 0;
  nn::Conv3D layer(cfg);
  Rng rng(11);
  nn::init_params(layer.params(), rng);
  check_layer(layer, random_tensor({2, 1, 8, 3, 4}, 12));
}

// Gradient checks on the geometries where the im2col range math has the
// most edge cases.

TEST(GradCheck, Conv2DBackendsOddStridePadding) {
  nn::Conv2DConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 2;
  cfg.kernel = 5;
  cfg.stride = 3;
  cfg.padding = 2;
  nn::Conv2D layer(cfg);
  Rng rng(41);
  nn::init_params(layer.params(), rng);
  check_layer(layer, random_tensor({2, 2, 11, 8}, 42));
}

TEST(GradCheck, Conv3DBackendsOddStridePadding) {
  nn::Conv3DConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 2;
  cfg.kernel_t = 3;
  cfg.kernel_s = 5;
  cfg.stride_t = 2;
  cfg.stride_s = 3;
  cfg.pad_t = 1;
  cfg.pad_s = 2;
  nn::Conv3D layer(cfg);
  Rng rng(43);
  nn::init_params(layer.params(), rng);
  check_layer(layer, random_tensor({1, 2, 5, 9, 7}, 44));
}

TEST(GradCheck, MaxPool2D) {
  nn::MaxPool2D layer(2, 2);
  check_layer(layer, random_tensor({2, 2, 6, 6}, 13));
}

TEST(GradCheck, MaxPool3D) {
  nn::MaxPool3D layer(2, 2, 2, 2);
  // Well-separated values so the +-h perturbation cannot flip an argmax
  // (a genuine kink where central differences are meaningless).
  Tensor input({1, 2, 4, 6, 6});
  Rng rng(14);
  std::vector<std::size_t> order(input.numel());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  shuffle(order, rng);
  for (std::size_t i = 0; i < order.size(); ++i) {
    input[order[i]] = 0.01f * static_cast<float>(i);  // gaps of 0.01 >> 2h
  }
  check_layer(layer, std::move(input));
}

TEST(GradCheck, GlobalAvgPool) {
  nn::GlobalAvgPool layer;
  check_layer(layer, random_tensor({2, 3, 4, 5}, 15));
}

TEST(GradCheck, ReLU) {
  nn::ReLU layer;
  check_layer(layer, random_tensor({3, 7}, 16));
}

TEST(GradCheck, Flatten) {
  nn::Flatten layer;
  check_layer(layer, random_tensor({2, 3, 4}, 17));
}

TEST(GradCheck, BatchNormTrainingMode) {
  nn::BatchNorm layer(3);
  // Batch statistics depend on the whole batch: the weighted-sum loss and
  // central differences capture that coupling too.
  check_layer(layer, random_tensor({4, 3, 5}, 18), /*tol=*/8e-2);
}

TEST(GradCheck, SlowFastWholeModel) {
  models::SlowFastConfig cfg;
  cfg.frames = 8;
  cfg.alpha = 4;
  cfg.slow_channels = 4;
  cfg.fast_channels = 2;
  cfg.dropout = 0.0f;  // keep the graph deterministic for differencing
  models::SlowFast model(cfg);
  check_gradients(
      [&](const Tensor& x) { return model.forward(x, true); },
      [&](const Tensor& g) {
        model.backward(g);
        return Tensor({1}, 0.0f);  // input grads not exposed; params checked
      },
      model.params(), random_tensor({2, 1, 8, 8, 10}, 19), 2e-4, 8e-2, 12);
}

TEST(GradCheck, C3DWholeModel) {
  models::C3DConfig cfg;
  cfg.frames = 8;
  cfg.base_channels = 2;
  models::C3D model(cfg);
  check_gradients(
      [&](const Tensor& x) { return model.forward(x, true); },
      [&](const Tensor& g) {
        model.backward(g);
        return Tensor({1}, 0.0f);
      },
      model.params(), random_tensor({2, 1, 8, 8, 10}, 20), 2e-4, 8e-2, 12);
}

TEST(GradCheck, TSNWholeModel) {
  models::TSNConfig cfg;
  cfg.frames = 8;
  cfg.base_channels = 2;
  models::TSN model(cfg);
  check_gradients(
      [&](const Tensor& x) { return model.forward(x, true); },
      [&](const Tensor& g) {
        model.backward(g);
        return Tensor({1}, 0.0f);
      },
      model.params(), random_tensor({2, 1, 8, 8, 10}, 21), 2e-4, 8e-2, 12);
}

}  // namespace
}  // namespace safecross
