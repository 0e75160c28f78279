// Property-based tests of the nn substrate, swept with TEST_P.

#include <cmath>
#include <cstring>
#include <sstream>
#include <tuple>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"
#include "conv_reference.h"
#include "models/inception_lite.h"
#include "models/resnet_lite.h"
#include "models/slowfast.h"
#include "models/tsn.h"
#include "models/yolo_lite.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/conv3d.h"
#include "nn/init.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace safecross::nn {
namespace {

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform(-2, 2));
  return t;
}

// ---------- Conv geometry sweep: forward/backward shape contracts ----------

struct ConvCase {
  int in_c, out_c, kernel, stride, pad, h, w;
};

class Conv2DGeometry : public ::testing::TestWithParam<ConvCase> {};

TEST_P(Conv2DGeometry, ShapesAndGradientsConsistent) {
  const ConvCase c = GetParam();
  Conv2DConfig cfg;
  cfg.in_channels = c.in_c;
  cfg.out_channels = c.out_c;
  cfg.kernel = c.kernel;
  cfg.stride = c.stride;
  cfg.padding = c.pad;
  Conv2D conv(cfg);
  Rng rng(1);
  init_params(conv.params(), rng);

  const Tensor x = random_tensor({2, c.in_c, c.h, c.w}, 2);
  const Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.dim(0), 2);
  EXPECT_EQ(y.dim(1), c.out_c);
  EXPECT_EQ(y.dim(2), Conv2D::out_size(c.h, c.kernel, c.stride, c.pad));
  EXPECT_EQ(y.dim(3), Conv2D::out_size(c.w, c.kernel, c.stride, c.pad));

  const Tensor g = conv.backward(random_tensor(y.shape(), 3));
  EXPECT_EQ(g.shape(), x.shape());
  // Bias gradient equals the sum of the output gradient per channel
  // (checked loosely: nonzero for a random gradient).
  EXPECT_NE(conv.params()[1]->grad.sum(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Sweep, Conv2DGeometry,
                         ::testing::Values(ConvCase{1, 4, 3, 1, 1, 9, 11},
                                           ConvCase{3, 2, 3, 2, 1, 12, 16},
                                           ConvCase{2, 5, 1, 1, 0, 7, 7},
                                           ConvCase{4, 4, 5, 2, 2, 15, 13},
                                           ConvCase{1, 1, 3, 3, 0, 9, 12}));

struct Conv3DCase {
  int in_c, out_c, kt, ks, st, ss, pt, ps, t, h, w;
};

class Conv3DGeometry : public ::testing::TestWithParam<Conv3DCase> {};

TEST_P(Conv3DGeometry, ShapesAndGradientsConsistent) {
  const Conv3DCase c = GetParam();
  Conv3DConfig cfg;
  cfg.in_channels = c.in_c;
  cfg.out_channels = c.out_c;
  cfg.kernel_t = c.kt;
  cfg.kernel_s = c.ks;
  cfg.stride_t = c.st;
  cfg.stride_s = c.ss;
  cfg.pad_t = c.pt;
  cfg.pad_s = c.ps;
  Conv3D conv(cfg);
  Rng rng(4);
  init_params(conv.params(), rng);

  const Tensor x = random_tensor({2, c.in_c, c.t, c.h, c.w}, 5);
  const Tensor y = conv.forward(x, true);
  EXPECT_EQ(y.dim(1), c.out_c);
  EXPECT_EQ(y.dim(2), Conv3D::out_size(c.t, c.kt, c.st, c.pt));
  EXPECT_EQ(y.dim(3), Conv3D::out_size(c.h, c.ks, c.ss, c.ps));
  EXPECT_EQ(y.dim(4), Conv3D::out_size(c.w, c.ks, c.ss, c.ps));
  const Tensor g = conv.backward(random_tensor(y.shape(), 6));
  EXPECT_EQ(g.shape(), x.shape());
}

INSTANTIATE_TEST_SUITE_P(Sweep, Conv3DGeometry,
                         ::testing::Values(Conv3DCase{1, 2, 3, 3, 1, 1, 1, 1, 8, 6, 9},
                                           Conv3DCase{2, 3, 1, 3, 1, 2, 0, 1, 4, 10, 12},
                                           Conv3DCase{1, 2, 5, 1, 1, 1, 2, 0, 12, 5, 5},
                                           Conv3DCase{2, 2, 4, 1, 4, 1, 0, 0, 16, 4, 6},
                                           Conv3DCase{3, 1, 3, 3, 2, 2, 1, 1, 9, 9, 9}));

// ---------- Conv3D tile parity: the GEMM forward's bits do not depend on
// the batch size, the mode, or how the output planes are tiled ----------

struct TileCase {
  int n, in_c, out_c, kt, ks, st, ss, pt, ps, t, h, w;

  int rows() const { return in_c * kt * ks * ks; }
  int cols() const {
    return Conv3D::out_size(t, kt, st, pt) * Conv3D::out_size(h, ks, ss, ps) *
           Conv3D::out_size(w, ks, ss, ps);
  }
};

TileCase random_tile_case(std::uint64_t seed) {
  Rng rng(seed);
  TileCase c;
  c.n = rng.uniform_int(1, 9);
  c.in_c = rng.uniform_int(1, 13);
  c.out_c = rng.uniform_int(1, 14);
  c.kt = rng.uniform_int(1, 5);
  c.ks = rng.uniform_int(0, 1) == 0 ? 1 : 3;
  c.st = rng.uniform_int(1, 3);
  c.ss = rng.uniform_int(1, 2);
  c.pt = rng.uniform_int(0, c.kt / 2);
  c.ps = c.ks / 2;
  c.t = rng.uniform_int(c.kt, 12);
  c.h = rng.uniform_int(c.ks, 11);
  c.w = rng.uniform_int(c.ks, 13);
  return c;
}

constexpr std::uint64_t kTileSeeds[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10, 11, 12,
                                        13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24};

class Conv3DTileParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Conv3DTileParity, InferenceTrainingAndPerItemForwardsAreBitIdentical) {
  const TileCase c = random_tile_case(GetParam());
  Conv3DConfig cfg;
  cfg.in_channels = c.in_c;
  cfg.out_channels = c.out_c;
  cfg.kernel_t = c.kt;
  cfg.kernel_s = c.ks;
  cfg.stride_t = c.st;
  cfg.stride_s = c.ss;
  cfg.pad_t = c.pt;
  cfg.pad_s = c.ps;
  Conv3D conv(cfg);
  Rng rng(GetParam() ^ 0x7Au);
  init_params(conv.params(), rng);
  // init_params zeroes biases; give them values so the bias add is covered.
  Tensor& bias = conv.params()[1]->value;
  for (std::size_t i = 0; i < bias.numel(); ++i) bias[i] = static_cast<float>(rng.uniform(-1, 1));

  const Tensor x = random_tensor({c.n, c.in_c, c.t, c.h, c.w}, GetParam() + 100);
  const Tensor inference = conv.forward(x, false);
  const Tensor training = conv.forward(x, true);
  ASSERT_EQ(inference.shape(), training.shape());
  const std::size_t bytes = inference.numel() * sizeof(float);
  EXPECT_EQ(std::memcmp(inference.data(), training.data(), bytes), 0)
      << "training forward differs from inference";

  const std::size_t in_item = x.numel() / static_cast<std::size_t>(c.n);
  const std::size_t out_item = inference.numel() / static_cast<std::size_t>(c.n);
  for (int bi = 0; bi < c.n; ++bi) {
    Tensor xi({1, c.in_c, c.t, c.h, c.w});
    std::memcpy(xi.data(), x.data() + bi * in_item, in_item * sizeof(float));
    const Tensor yi = conv.forward(xi, false);
    ASSERT_EQ(yi.numel(), out_item);
    EXPECT_EQ(std::memcmp(yi.data(), inference.data() + bi * out_item, out_item * sizeof(float)),
              0)
        << "item " << bi << " forwarded alone differs from the batched forward";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGeometry, Conv3DTileParity, ::testing::ValuesIn(kTileSeeds));

// The sweep above must reach every corner where a tiling bug could hide:
// c_out on both sides of the microkernel's 6 rows, k past one 256-row
// slab, output sizes off the 16-lane grid, strided and padded time axes,
// and batches from 1 to 9.
TEST(Conv3DTileParitySweep, CoversTheTilingCorners) {
  bool narrow = false, wide = false, multi_slab = false, ragged = false, strided_padded = false;
  bool single = false, nine = false;
  for (const std::uint64_t seed : kTileSeeds) {
    const TileCase c = random_tile_case(seed);
    narrow |= c.out_c < 6;
    wide |= c.out_c > 6;
    multi_slab |= c.rows() > 256;
    ragged |= c.cols() % 16 != 0;
    strided_padded |= c.st > 1 && c.pt > 0;
    single |= c.n == 1;
    nine |= c.n == 9;
  }
  EXPECT_TRUE(narrow);
  EXPECT_TRUE(wide);
  EXPECT_TRUE(multi_slab);
  EXPECT_TRUE(ragged);
  EXPECT_TRUE(strided_padded);
  EXPECT_TRUE(single);
  EXPECT_TRUE(nine);
}

// Pinned output bits depend on whether the build contracts multiply-adds
// into FMA, so each pin holds one value per build: {FMA, plain}. The FMA
// values come from a -march=native build on an AVX-512 host.
struct PinnedCrc {
  std::uint32_t fma, plain;
};

std::uint32_t expected_crc(const PinnedCrc& pin) {
#if defined(__FMA__)
  return pin.fma;
#else
  return pin.plain;
#endif
}

// SlowFast logits for fixed weights and clips, CRC'd and compared with
// values recorded before the conv forward was tiled.
TEST(Conv3DTileParitySweep, SlowFastOutputsMatchPinnedChecksum) {
  std::uint32_t crc = 0;
  for (const std::uint64_t init_seed : {21u, 22u, 23u}) {
    models::SlowFastConfig cfg;
    cfg.init_seed = init_seed;
    models::SlowFast model(cfg);
    for (const int n : {1, 2, 3, 5, 8}) {
      const Tensor clips = random_tensor({n, 1, cfg.frames, 24, 36}, init_seed * 100 + n);
      const Tensor scores = model.forward(clips, false);
      crc = common::crc32(scores.data(), scores.numel() * sizeof(float), crc);
    }
  }
  EXPECT_EQ(crc, expected_crc({0x4bbf4236u, 0x24b9b618u})) << std::hex << "crc 0x" << crc;
}

// ---------- Conv2D vs the reference loops over random geometries ----------

struct Conv2DRefCase {
  int n, in_c, out_c, k, stride, pad, h, w;
  bool bias;
};

Conv2DRefCase random_conv2d_case(std::uint64_t seed) {
  Rng rng(seed);
  Conv2DRefCase c;
  c.n = rng.uniform_int(1, 4);
  c.in_c = rng.uniform_int(1, 6);
  c.out_c = rng.uniform_int(1, 20);
  c.k = rng.uniform_int(1, 5);
  c.stride = rng.uniform_int(1, 3);
  c.pad = rng.uniform_int(0, 2);
  c.h = rng.uniform_int(c.k, 12);
  c.w = rng.uniform_int(c.k, 14);
  c.bias = rng.uniform_int(0, 1) == 1;
  return c;
}

constexpr std::uint64_t kConv2DRefSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};

class Conv2DReferenceParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Conv2DReferenceParity, ForwardAndGradientsMatchTheReferenceLoops) {
  const Conv2DRefCase c = random_conv2d_case(GetParam());
  Conv2DConfig cfg;
  cfg.in_channels = c.in_c;
  cfg.out_channels = c.out_c;
  cfg.kernel = c.k;
  cfg.stride = c.stride;
  cfg.padding = c.pad;
  cfg.bias = c.bias;
  Conv2D conv(cfg);
  Rng rng(GetParam() ^ 0x2Du);
  init_params(conv.params(), rng);
  for (std::size_t i = 0; i < conv.bias().value.numel(); ++i) {
    conv.bias().value[i] = static_cast<float>(rng.uniform(-1, 1));
  }

  auto expect_near = [](const Tensor& want, const Tensor& got, const char* what) {
    ASSERT_EQ(want.shape(), got.shape()) << what;
    for (std::size_t i = 0; i < want.numel(); ++i) {
      ASSERT_NEAR(want[i], got[i], 1e-4f * (1.0f + std::abs(want[i]))) << what << " at " << i;
    }
  };
  const Tensor x = random_tensor({c.n, c.in_c, c.h, c.w}, GetParam() + 200);
  const Tensor y = conv.forward(x, true);
  expect_near(testing::reference_conv2d_forward(cfg, x, conv.weight().value, conv.bias().value),
              y, "forward");

  const Tensor gy = random_tensor(y.shape(), GetParam() + 300);
  const testing::ConvGrads ref =
      testing::reference_conv2d_backward(cfg, x, conv.weight().value, gy);
  expect_near(ref.input, conv.backward(gy), "grad_input");
  expect_near(ref.weight, conv.weight().grad, "grad_weight");
  expect_near(ref.bias, conv.bias().grad, "grad_bias");
}

INSTANTIATE_TEST_SUITE_P(RandomGeometry, Conv2DReferenceParity,
                         ::testing::ValuesIn(kConv2DRefSeeds));

// The sweep above must include a bias-free layer, a 1x1 kernel and a
// stride of 3.
TEST(Conv2DReferenceParitySweep, CoversBiasOffKernelOneAndStrideThree) {
  bool bias_off = false, kernel_one = false, stride_three = false;
  for (const std::uint64_t seed : kConv2DRefSeeds) {
    const Conv2DRefCase c = random_conv2d_case(seed);
    bias_off |= !c.bias;
    kernel_one |= c.k == 1;
    stride_three |= c.stride == 3;
  }
  EXPECT_TRUE(bias_off);
  EXPECT_TRUE(kernel_one);
  EXPECT_TRUE(stride_three);
}

// ---------- 2-D model pins ----------
//
// The 2-D models' outputs and trained checkpoints, CRC'd and compared
// with values recorded while Conv2D still had its own whole-panel
// lowering; one value per FMA build, like the SlowFast pin above.

TEST(Conv2DPinnedBits, ResNetLiteLogitsMatchPinnedChecksum) {
  std::uint32_t crc = 0;
  for (const std::uint64_t init_seed : {31u, 32u}) {
    models::ResNetLiteConfig cfg;
    cfg.init_seed = init_seed;
    models::ResNetLite model(cfg);
    for (const int n : {1, 2, 3, 5}) {
      const Tensor images = random_tensor({n, 1, 24, 36}, init_seed * 100 + n);
      const Tensor scores = model.forward(images, false);
      crc = common::crc32(scores.data(), scores.numel() * sizeof(float), crc);
    }
  }
  EXPECT_EQ(crc, expected_crc({0x84eded1eu, 0x2ebb5951u}))
      << std::hex << "crc 0x" << crc;
}

TEST(Conv2DPinnedBits, YoloLiteOutputsMatchPinnedChecksum) {
  std::uint32_t crc = 0;
  for (const std::uint64_t init_seed : {33u, 34u}) {
    models::YoloLiteConfig cfg;
    cfg.in_height = 48;
    cfg.in_width = 64;
    cfg.init_seed = init_seed;
    models::YoloLite model(cfg);
    for (const int n : {1, 2, 3}) {
      const Tensor frames = random_tensor({n, 1, 48, 64}, init_seed * 100 + n);
      const Tensor pred = model.forward(frames, false);
      crc = common::crc32(pred.data(), pred.numel() * sizeof(float), crc);
    }
  }
  EXPECT_EQ(crc, expected_crc({0x119a470du, 0x92a984bcu}))
      << std::hex << "crc 0x" << crc;
}

// One SGD step (training forward, backward of a fixed output gradient),
// then the checkpoint bytes a trainer would write: parameters followed
// by BatchNorm running statistics. The CRC covers the conv forward and
// all three gradients, and the checkpoint's ranks and shapes.
template <typename Model>
std::uint32_t trained_checkpoint_crc(Model& model, const Tensor& input, std::uint64_t seed) {
  SGD opt(model.params(), 0.1f);
  opt.zero_grad();
  const Tensor out = model.forward(input, true);
  model.backward(random_tensor(out.shape(), seed));
  opt.step();
  std::ostringstream os;
  save_params(os, model.params());
  save_tensors(os, model.buffers());
  const std::string bytes = os.str();
  return common::crc32(bytes.data(), bytes.size());
}

TEST(Conv2DPinnedBits, TrainedCheckpointsMatchPinnedChecksums) {
  {
    models::TSNConfig cfg;
    cfg.frames = 8;
    models::TSN model(cfg);
    const std::uint32_t crc =
        trained_checkpoint_crc(model, random_tensor({2, 1, 8, 16, 24}, 41), 42);
    EXPECT_EQ(crc, expected_crc({0x829bb7beu, 0xe6567112u}))
        << std::hex << "tsn crc 0x" << crc;
  }
  {
    models::ResNetLite model;
    const std::uint32_t crc =
        trained_checkpoint_crc(model, random_tensor({3, 1, 16, 24}, 43), 44);
    EXPECT_EQ(crc, expected_crc({0x8071ac81u, 0x3659b181u}))
        << std::hex << "resnet_lite crc 0x" << crc;
  }
  {
    models::InceptionLite model;
    const std::uint32_t crc =
        trained_checkpoint_crc(model, random_tensor({2, 1, 16, 24}, 45), 46);
    EXPECT_EQ(crc, expected_crc({0x63a1fb41u, 0x064f2daeu}))
        << std::hex << "inception_lite crc 0x" << crc;
  }
  {
    models::YoloLiteConfig cfg;
    cfg.in_height = 32;
    cfg.in_width = 64;
    models::YoloLite model(cfg);
    const std::uint32_t crc =
        trained_checkpoint_crc(model, random_tensor({2, 1, 32, 64}, 47), 48);
    EXPECT_EQ(crc, expected_crc({0xa74e14b6u, 0x4db0d1f6u}))
        << std::hex << "yolo_lite crc 0x" << crc;
  }
}

// ---------- Softmax invariants over random logits ----------

class SoftmaxLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SoftmaxLaws, RowsAreDistributions) {
  const Tensor logits = random_tensor({5, 7}, GetParam());
  const Tensor p = softmax(logits);
  for (int r = 0; r < 5; ++r) {
    double sum = 0.0;
    for (int c = 0; c < 7; ++c) {
      const float v = p[static_cast<std::size_t>(r) * 7 + c];
      EXPECT_GE(v, 0.0f);
      EXPECT_LE(v, 1.0f);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST_P(SoftmaxLaws, InvariantToLogitShift) {
  const Tensor logits = random_tensor({3, 4}, GetParam() ^ 0x55);
  Tensor shifted = logits;
  for (std::size_t i = 0; i < shifted.numel(); ++i) shifted[i] += 123.0f;
  const Tensor a = softmax(logits);
  const Tensor b = softmax(shifted);
  for (std::size_t i = 0; i < a.numel(); ++i) EXPECT_NEAR(a[i], b[i], 1e-5);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoftmaxLaws, ::testing::Values(11u, 22u, 33u, 44u));

// ---------- BatchNorm normalizes arbitrary channel counts/shapes ----------

class BatchNormLaws : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(BatchNormLaws, TrainingOutputIsStandardizedPerChannel) {
  const auto [channels, spatial, seed] = GetParam();
  BatchNorm bn(channels);
  const Tensor x = random_tensor({6, channels, spatial}, seed);
  const Tensor y = bn.forward(x, true);
  for (int c = 0; c < channels; ++c) {
    double sum = 0.0, sq = 0.0;
    int n = 0;
    for (int b = 0; b < 6; ++b) {
      for (int s = 0; s < spatial; ++s) {
        const float v = y[(static_cast<std::size_t>(b) * channels + c) * spatial + s];
        sum += v;
        sq += static_cast<double>(v) * v;
        ++n;
      }
    }
    const double mean = sum / n;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(sq / n - mean * mean, 1.0, 1e-2);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BatchNormLaws,
                         ::testing::Combine(::testing::Values(1, 3, 8),
                                            ::testing::Values(4, 25),
                                            ::testing::Values(7u, 8u)));

// ---------- Serialization round trip over random layer stacks ----------

class SerializeRoundTrip : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(SerializeRoundTrip, ValuesSurvive) {
  const auto [in_f, out_f, seed] = GetParam();
  Linear a(in_f, out_f), b(in_f, out_f);
  Rng rng(seed);
  init_params(a.params(), rng);
  std::stringstream ss;
  save_params(ss, a.params());
  EXPECT_EQ(ss.str().size(), serialized_size(a.params()));
  load_params(ss, b.params());
  for (std::size_t p = 0; p < a.params().size(); ++p) {
    for (std::size_t i = 0; i < a.params()[p]->value.numel(); ++i) {
      EXPECT_FLOAT_EQ(a.params()[p]->value[i], b.params()[p]->value[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SerializeRoundTrip,
                         ::testing::Combine(::testing::Values(1, 7, 30),
                                            ::testing::Values(1, 5, 13),
                                            ::testing::Values(1u, 2u)));

// ---------- Optimizers make progress on random quadratics ----------

class OptimizerProgress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizerProgress, SgdAndAdamReduceRandomQuadratic) {
  Rng rng(GetParam());
  // f(x) = sum_i a_i (x_i - t_i)^2 with random positive a and targets t.
  const int n = 8;
  std::vector<float> a(n), t(n);
  for (int i = 0; i < n; ++i) {
    a[i] = static_cast<float>(rng.uniform(0.5, 2.0));
    t[i] = static_cast<float>(rng.uniform(-3.0, 3.0));
  }
  auto loss_of = [&](const Tensor& x) {
    double l = 0.0;
    for (int i = 0; i < n; ++i) l += a[i] * (x[i] - t[i]) * (x[i] - t[i]);
    return l;
  };
  for (const bool use_adam : {false, true}) {
    Param p(Tensor({n}, 0.0f));
    std::unique_ptr<Optimizer> opt;
    if (use_adam) {
      opt = std::make_unique<Adam>(std::vector<Param*>{&p}, 0.1f);
    } else {
      opt = std::make_unique<SGD>(std::vector<Param*>{&p}, 0.05f, 0.9f);
    }
    const double initial = loss_of(p.value);
    for (int step = 0; step < 150; ++step) {
      opt->zero_grad();
      for (int i = 0; i < n; ++i) p.grad[i] = 2.0f * a[i] * (p.value[i] - t[i]);
      opt->step();
    }
    EXPECT_LT(loss_of(p.value), initial * 0.05) << (use_adam ? "adam" : "sgd");
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerProgress, ::testing::Values(3u, 5u, 7u, 9u));

}  // namespace
}  // namespace safecross::nn
