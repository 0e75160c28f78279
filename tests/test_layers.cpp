// Behavioural layer tests (shapes, modes, caching) complementing the
// numerical gradient checks in test_gradcheck.cpp.

#include <gtest/gtest.h>

#include <stdexcept>

#include "conv_reference.h"
#include "gradcheck.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/conv3d.h"
#include "nn/dropout.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/pooling.h"
#include "nn/sequential.h"

namespace safecross::nn {
namespace {

using testing::random_tensor;

TEST(Conv2D, OutputShape) {
  Conv2DConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 8;
  cfg.kernel = 3;
  cfg.stride = 2;
  cfg.padding = 1;
  Conv2D conv(cfg);
  const Tensor out = conv.forward(Tensor({2, 3, 16, 20}), false);
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 8, 8, 10}));
}

TEST(Conv2D, RejectsWrongChannelCount) {
  Conv2D conv(Conv2DConfig{});
  EXPECT_THROW(conv.forward(Tensor({1, 3, 8, 8}), false), std::invalid_argument);
}

TEST(Conv2D, KernelOneActsPointwise) {
  Conv2DConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 1;
  cfg.kernel = 1;
  cfg.padding = 0;
  Conv2D conv(cfg);
  conv.weight().value[0] = 2.0f;
  conv.params()[1]->value[0] = 0.5f;  // bias
  Tensor in({1, 1, 2, 2}, 3.0f);
  const Tensor out = conv.forward(in, false);
  EXPECT_FLOAT_EQ(out[0], 6.5f);
}

TEST(Conv3D, OutputShapeWithTemporalStride) {
  Conv3DConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 4;
  cfg.kernel_t = 8;
  cfg.kernel_s = 1;
  cfg.stride_t = 8;
  cfg.pad_t = 0;
  cfg.pad_s = 0;
  Conv3D conv(cfg);
  const Tensor out = conv.forward(Tensor({1, 1, 32, 6, 9}), false);
  EXPECT_EQ(out.shape(), (std::vector<int>{1, 4, 4, 6, 9}));
}

TEST(Conv3D, EmptyOutputRejected) {
  Conv3DConfig cfg;
  cfg.kernel_t = 5;
  cfg.pad_t = 0;
  Conv3D conv(cfg);
  EXPECT_THROW(conv.forward(Tensor({1, 1, 3, 4, 4}), false), std::invalid_argument);
}

// --- layer vs reference-loop parity ---------------------------------------
//
// The im2col + GEMM layers must agree with the naive reference loops
// (conv_reference.h) on forward outputs, input gradients, and parameter
// gradients for every geometry — tested on deliberately awkward strides
// and paddings where the im2col range math is easiest to get wrong.

void expect_tensors_near(const Tensor& a, const Tensor& b, float tol, const char* what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    ASSERT_NEAR(a[i], b[i], tol) << what << " at " << i;
  }
}

void expect_conv2d_matches_reference(const Conv2DConfig& cfg, const std::vector<int>& in_shape,
                                     std::uint64_t seed) {
  Conv2D conv(cfg);
  Rng rng(seed ^ 0xC0u);
  init_params(conv.params(), rng);
  for (std::size_t i = 0; i < conv.bias().value.numel(); ++i) {
    conv.bias().value[i] = static_cast<float>(rng.uniform(-1, 1));
  }

  const Tensor x = random_tensor(in_shape, seed);
  const Tensor y = conv.forward(x, true);
  expect_tensors_near(
      testing::reference_conv2d_forward(cfg, x, conv.weight().value, conv.bias().value), y, 1e-4f,
      "forward");

  const Tensor gy = random_tensor(y.shape(), seed ^ 0x5EEDu);
  const testing::ConvGrads ref =
      testing::reference_conv2d_backward(cfg, x, conv.weight().value, gy);
  expect_tensors_near(ref.input, conv.backward(gy), 1e-4f, "grad_input");
  expect_tensors_near(ref.weight, conv.weight().grad, 1e-4f, "grad_weight");
  expect_tensors_near(ref.bias, conv.bias().grad, 1e-4f, "grad_bias");
}

void expect_conv3d_matches_reference(const Conv3DConfig& cfg, const std::vector<int>& in_shape,
                                     std::uint64_t seed) {
  Conv3D conv(cfg);
  Rng rng(seed ^ 0xC0u);
  init_params(conv.params(), rng);
  Param& bias = *conv.params()[1];
  for (std::size_t i = 0; i < bias.value.numel(); ++i) {
    bias.value[i] = static_cast<float>(rng.uniform(-1, 1));
  }

  const Tensor x = random_tensor(in_shape, seed);
  const Tensor y = conv.forward(x, true);
  expect_tensors_near(testing::reference_conv3d_forward(cfg, x, conv.weight().value, bias.value),
                      y, 1e-4f, "forward");

  const Tensor gy = random_tensor(y.shape(), seed ^ 0x5EEDu);
  const testing::ConvGrads ref =
      testing::reference_conv3d_backward(cfg, x, conv.weight().value, gy);
  expect_tensors_near(ref.input, conv.backward(gy), 1e-4f, "grad_input");
  expect_tensors_near(ref.weight, conv.weight().grad, 1e-4f, "grad_weight");
  expect_tensors_near(ref.bias, bias.grad, 1e-4f, "grad_bias");
}

TEST(Conv2D, BackendParityBasic) {
  Conv2DConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 5;
  cfg.kernel = 3;
  cfg.stride = 1;
  cfg.padding = 1;
  expect_conv2d_matches_reference(cfg, {2, 3, 9, 11}, 101);
}

TEST(Conv2D, BackendParityOddStridePadding) {
  Conv2DConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 4;
  cfg.kernel = 5;
  cfg.stride = 3;
  cfg.padding = 2;
  expect_conv2d_matches_reference(cfg, {2, 2, 13, 10}, 102);
}

TEST(Conv2D, BackendParityUnpaddedStride2) {
  Conv2DConfig cfg;
  cfg.in_channels = 1;
  cfg.out_channels = 3;
  cfg.kernel = 4;
  cfg.stride = 2;
  cfg.padding = 0;
  expect_conv2d_matches_reference(cfg, {3, 1, 12, 8}, 103);
}

TEST(Conv3D, BackendParityBasic) {
  Conv3DConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 4;
  cfg.kernel_t = 3;
  cfg.kernel_s = 3;
  cfg.pad_t = 1;
  cfg.pad_s = 1;
  expect_conv3d_matches_reference(cfg, {2, 2, 6, 7, 8}, 201);
}

TEST(Conv3D, BackendParityTemporalStride) {
  // SlowFast lateral-connection geometry: long temporal kernel, matching
  // temporal stride, no temporal padding.
  Conv3DConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 4;
  cfg.kernel_t = 4;
  cfg.kernel_s = 1;
  cfg.stride_t = 4;
  cfg.stride_s = 1;
  cfg.pad_t = 0;
  cfg.pad_s = 0;
  expect_conv3d_matches_reference(cfg, {1, 2, 8, 5, 6}, 202);
}

TEST(Conv3D, BackendParityOddStridePadding) {
  Conv3DConfig cfg;
  cfg.in_channels = 3;
  cfg.out_channels = 2;
  cfg.kernel_t = 3;
  cfg.kernel_s = 5;
  cfg.stride_t = 2;
  cfg.stride_s = 3;
  cfg.pad_t = 1;
  cfg.pad_s = 2;
  expect_conv3d_matches_reference(cfg, {2, 3, 7, 11, 9}, 203);
}

TEST(Conv3D, BackwardAfterInferenceForwardThrows) {
  Conv3DConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 3;
  Conv3D conv(cfg);
  const Tensor x = random_tensor({2, 2, 4, 5, 6}, 204);
  const Tensor y = conv.forward(x, true);
  EXPECT_NO_THROW(conv.backward(y));
  // An inference forward drops the training state, even one left over.
  conv.forward(x, false);
  EXPECT_THROW(conv.backward(y), std::logic_error);
}

TEST(MaxPool2D, PicksWindowMaximum) {
  MaxPool2D pool(2, 2);
  Tensor in({1, 1, 2, 2});
  in[0] = 1;
  in[1] = 5;
  in[2] = 3;
  in[3] = 2;
  const Tensor out = pool.forward(in, false);
  EXPECT_EQ(out.numel(), 1u);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
}

TEST(MaxPool2D, BackwardRoutesToArgmaxOnly) {
  MaxPool2D pool(2, 2);
  Tensor in({1, 1, 2, 2});
  in[0] = 1;
  in[1] = 5;
  in[2] = 3;
  in[3] = 2;
  pool.forward(in, false);
  const Tensor grad = pool.backward(Tensor({1, 1, 1, 1}, 1.0f));
  EXPECT_FLOAT_EQ(grad[1], 1.0f);
  EXPECT_FLOAT_EQ(grad[0], 0.0f);
  EXPECT_FLOAT_EQ(grad[2], 0.0f);
}

TEST(GlobalAvgPool, AveragesAllTrailingDims) {
  GlobalAvgPool pool;
  Tensor in({1, 2, 2, 2}, 0.0f);
  for (int i = 0; i < 4; ++i) in[i] = static_cast<float>(i);  // channel 0: 0,1,2,3
  const Tensor out = pool.forward(in, false);
  EXPECT_EQ(out.shape(), (std::vector<int>{1, 2}));
  EXPECT_FLOAT_EQ(out[0], 1.5f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
}

TEST(ReLU, ClampsNegatives) {
  ReLU relu;
  Tensor in({3});
  in[0] = -1.0f;
  in[1] = 0.0f;
  in[2] = 2.0f;
  const Tensor out = relu.forward(in, false);
  EXPECT_FLOAT_EQ(out[0], 0.0f);
  EXPECT_FLOAT_EQ(out[1], 0.0f);
  EXPECT_FLOAT_EQ(out[2], 2.0f);
}

TEST(Dropout, EvalModeIsIdentity) {
  Dropout drop(0.5f);
  const Tensor in = random_tensor({4, 8}, 30);
  const Tensor out = drop.forward(in, /*training=*/false);
  for (std::size_t i = 0; i < in.numel(); ++i) EXPECT_FLOAT_EQ(out[i], in[i]);
}

TEST(Dropout, TrainingZeroesSomeAndRescalesRest) {
  Dropout drop(0.5f, 77);
  const Tensor in({1000}, 1.0f);
  const Tensor out = drop.forward(in, true);
  std::size_t zeros = 0;
  for (std::size_t i = 0; i < out.numel(); ++i) {
    if (out[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(out[i], 2.0f);  // inverted scaling 1/keep
    }
  }
  EXPECT_GT(zeros, 350u);
  EXPECT_LT(zeros, 650u);
}

TEST(Dropout, BackwardUsesSameMask) {
  Dropout drop(0.5f, 78);
  const Tensor in({100}, 1.0f);
  const Tensor out = drop.forward(in, true);
  const Tensor grad = drop.backward(Tensor({100}, 1.0f));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FLOAT_EQ(grad[i], out[i]);  // both are mask * 2.0
  }
}

TEST(Dropout, RejectsInvalidRate) {
  EXPECT_THROW(Dropout(1.0f), std::invalid_argument);
  EXPECT_THROW(Dropout(-0.1f), std::invalid_argument);
}

TEST(BatchNorm, NormalizesTrainingBatch) {
  BatchNorm bn(1);
  Tensor in({4, 1});
  in[0] = 1;
  in[1] = 2;
  in[2] = 3;
  in[3] = 4;
  const Tensor out = bn.forward(in, true);
  double mean = 0.0, var = 0.0;
  for (int i = 0; i < 4; ++i) mean += out[i];
  mean /= 4;
  for (int i = 0; i < 4; ++i) var += (out[i] - mean) * (out[i] - mean);
  EXPECT_NEAR(mean, 0.0, 1e-5);
  EXPECT_NEAR(var / 4, 1.0, 1e-3);
}

TEST(BatchNorm, EvalUsesRunningStats) {
  BatchNorm bn(1, /*momentum=*/1.0f);  // running stats = last batch stats
  Tensor in({4, 1});
  in[0] = 1;
  in[1] = 2;
  in[2] = 3;
  in[3] = 4;
  bn.forward(in, true);
  // In eval, the same input normalizes with the stored stats: same result.
  const Tensor eval_out = bn.forward(in, false);
  EXPECT_NEAR(eval_out[0], -1.3416f, 1e-2);
  EXPECT_NEAR(eval_out[3], 1.3416f, 1e-2);
}

TEST(BatchNorm, BackwardAfterInferenceForwardThrows) {
  BatchNorm bn(2);
  const Tensor x = random_tensor({3, 2, 5}, 42);
  const Tensor y = bn.forward(x, true);
  EXPECT_NO_THROW(bn.backward(y));
  bn.forward(x, false);
  EXPECT_THROW(bn.backward(y), std::logic_error);
}

TEST(BatchNorm, BuffersExposeRunningStats) {
  BatchNorm bn(2);
  EXPECT_EQ(bn.buffers().size(), 2u);
  EXPECT_EQ(bn.params().size(), 2u);
}

TEST(Sequential, ChainsLayersAndParams) {
  Sequential net;
  net.emplace<Linear>(4, 8);
  net.emplace<ReLU>();
  net.emplace<Linear>(8, 2);
  Rng rng(40);
  init_params(net.params(), rng);
  EXPECT_EQ(net.params().size(), 4u);  // two weights + two biases
  const Tensor out = net.forward(random_tensor({3, 4}, 41), false);
  EXPECT_EQ(out.shape(), (std::vector<int>{3, 2}));
}

TEST(Sequential, ZeroGradClearsAllParams) {
  Sequential net;
  net.emplace<Linear>(2, 2);
  net.params()[0]->grad.fill(5.0f);
  net.zero_grad();
  EXPECT_FLOAT_EQ(net.params()[0]->grad[0], 0.0f);
}

TEST(InitParams, HeInitOnlyTouchesWeights) {
  Linear layer(10, 5);
  Rng rng(50);
  init_params(layer.params(), rng);
  // Weight got nonzero values; bias stayed zero.
  bool any_nonzero = false;
  for (std::size_t i = 0; i < layer.params()[0]->value.numel(); ++i) {
    any_nonzero |= layer.params()[0]->value[i] != 0.0f;
  }
  EXPECT_TRUE(any_nonzero);
  for (std::size_t i = 0; i < layer.params()[1]->value.numel(); ++i) {
    EXPECT_FLOAT_EQ(layer.params()[1]->value[i], 0.0f);
  }
}

TEST(ParamUtils, CountAndCopy) {
  Linear a(3, 2), b(3, 2);
  Rng rng(60);
  init_params(a.params(), rng);
  EXPECT_EQ(param_count(a.params()), 8u);  // 6 weights + 2 biases
  copy_param_values(a.params(), b.params());
  EXPECT_FLOAT_EQ(b.params()[0]->value[3], a.params()[0]->value[3]);
  Linear c(4, 2);
  EXPECT_THROW(copy_param_values(a.params(), c.params()), std::invalid_argument);
}

}  // namespace
}  // namespace safecross::nn
