#include <algorithm>
#include <stdexcept>

#include <gtest/gtest.h>

#include "gradcheck.h"
#include "models/c3d.h"
#include "models/slowfast.h"
#include "models/tsn.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace safecross::models {
namespace {

using testing::random_tensor;

SlowFastConfig small_slowfast() {
  SlowFastConfig cfg;
  cfg.frames = 16;
  cfg.alpha = 8;
  cfg.slow_channels = 4;
  cfg.fast_channels = 2;
  return cfg;
}

TEST(SlowFast, OutputShape) {
  SlowFast model(small_slowfast());
  const nn::Tensor out = model.forward(random_tensor({3, 1, 16, 12, 18}, 1), false);
  EXPECT_EQ(out.shape(), (std::vector<int>{3, 2}));
}

TEST(SlowFast, RejectsWrongFrameCount) {
  SlowFast model(small_slowfast());
  EXPECT_THROW(model.forward(random_tensor({1, 1, 8, 12, 18}, 2), false), std::invalid_argument);
}

TEST(SlowFast, FramesMustBeMultipleOfAlpha) {
  SlowFastConfig cfg = small_slowfast();
  cfg.frames = 12;  // not divisible by alpha=8
  EXPECT_THROW(SlowFast{cfg}, std::invalid_argument);
}

TEST(SlowFast, LateralAblationChangesParamCount) {
  SlowFastConfig with = small_slowfast();
  SlowFastConfig without = small_slowfast();
  without.use_lateral = false;
  SlowFast a(with), b(without);
  EXPECT_GT(nn::param_count(a.params()), nn::param_count(b.params()));
  // Both still produce valid logits.
  const nn::Tensor out = b.forward(random_tensor({1, 1, 16, 12, 18}, 3), false);
  EXPECT_EQ(out.shape(), (std::vector<int>{1, 2}));
}

TEST(SlowFast, BackwardAfterInferenceForwardThrows) {
  SlowFast model(small_slowfast());
  const nn::Tensor x = random_tensor({2, 1, 16, 12, 18}, 9);
  const nn::Tensor scores = model.forward(x, true);
  EXPECT_NO_THROW(model.backward(scores));
  model.forward(x, false);
  EXPECT_THROW(model.backward(scores), std::logic_error);
}

TEST(SlowFast, CloneProducesIdenticalOutputs) {
  SlowFast model(small_slowfast());
  auto copy = model.clone();
  const nn::Tensor x = random_tensor({2, 1, 16, 12, 18}, 4);
  const nn::Tensor y1 = model.forward(x, false);
  const nn::Tensor y2 = copy->forward(x, false);
  for (std::size_t i = 0; i < y1.numel(); ++i) EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

TEST(SlowFast, CloneIsIndependentAfterUpdate) {
  SlowFast model(small_slowfast());
  auto copy = model.clone();
  model.params()[0]->value[0] += 1.0f;
  EXPECT_NE(model.params()[0]->value[0], copy->params()[0]->value[0]);
}

TEST(SlowFast, DifferentSeedsDifferentWeights) {
  SlowFastConfig a = small_slowfast();
  SlowFastConfig b = small_slowfast();
  b.init_seed = 999;
  SlowFast ma(a), mb(b);
  EXPECT_NE(ma.params()[0]->value[0], mb.params()[0]->value[0]);
}

TEST(SlowFast, TrainingReducesLossOnTinyProblem) {
  // Overfit 4 synthetic clips: class by whether the clip is bright.
  SlowFast model(small_slowfast());
  nn::Tensor x({4, 1, 16, 12, 18}, 0.0f);
  std::vector<int> labels{0, 1, 0, 1};
  for (int n = 0; n < 4; ++n) {
    const float v = labels[n] == 1 ? 0.9f : 0.1f;
    for (int i = 0; i < 16 * 12 * 18; ++i) {
      x[static_cast<std::size_t>(n) * 16 * 12 * 18 + i] = v;
    }
  }
  nn::SoftmaxCrossEntropy ce;
  nn::SGD opt(model.params(), 0.05f, 0.9f);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 30; ++step) {
    model.zero_grad();
    const nn::Tensor scores = model.forward(x, true);
    const float loss = ce.forward(scores, labels);
    if (step == 0) first = loss;
    last = loss;
    model.backward(ce.grad());
    opt.step();
  }
  EXPECT_LT(last, first * 0.5f);
}

TEST(C3D, OutputShapeAndClone) {
  C3DConfig cfg;
  cfg.frames = 16;
  cfg.base_channels = 4;
  C3D model(cfg);
  const nn::Tensor out = model.forward(random_tensor({2, 1, 16, 12, 18}, 5), false);
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 2}));
  auto copy = model.clone();
  const nn::Tensor x = random_tensor({1, 1, 16, 12, 18}, 6);
  const nn::Tensor y1 = model.forward(x, false);
  const nn::Tensor y2 = copy->forward(x, false);
  EXPECT_FLOAT_EQ(y1[0], y2[0]);
}

TEST(C3D, RejectsWrongFrames) {
  C3DConfig cfg;
  cfg.frames = 16;
  C3D model(cfg);
  EXPECT_THROW(model.forward(random_tensor({1, 1, 8, 12, 18}, 7), false), std::invalid_argument);
}

TEST(TSN, SegmentIndicesAreSegmentCenters) {
  const auto idx = TSN::segment_indices(32, 3);
  ASSERT_EQ(idx.size(), 3u);
  EXPECT_EQ(idx[0], 5);
  EXPECT_EQ(idx[1], 16);
  EXPECT_EQ(idx[2], 26);
}

TEST(TSN, OutputShape) {
  TSNConfig cfg;
  cfg.frames = 16;
  cfg.base_channels = 4;
  TSN model(cfg);
  const nn::Tensor out = model.forward(random_tensor({3, 1, 16, 12, 18}, 8), false);
  EXPECT_EQ(out.shape(), (std::vector<int>{3, 2}));
}

TEST(TSN, ConsensusIsAverageOfSegmentScores) {
  // With a single segment, consensus must equal the backbone's output; we
  // verify the averaging by comparing 1-segment and 3-segment variants on
  // a clip whose frames are identical (averaging identical scores is a
  // no-op).
  TSNConfig one;
  one.frames = 16;
  one.segments = 1;
  one.base_channels = 4;
  TSNConfig three = one;
  three.segments = 3;
  TSN m1(one), m3(three);
  nn::copy_param_values(m1.params(), m3.params());
  nn::copy_buffers(m1.buffers(), m3.buffers());
  nn::Tensor x({1, 1, 16, 12, 18}, 0.0f);
  // All frames identical (constant 0.4).
  x.fill(0.4f);
  const nn::Tensor y1 = m1.forward(x, false);
  const nn::Tensor y3 = m3.forward(x, false);
  for (std::size_t i = 0; i < y1.numel(); ++i) EXPECT_NEAR(y1[i], y3[i], 1e-5);
}

TEST(TSN, CloneRoundTrip) {
  TSNConfig cfg;
  cfg.frames = 16;
  cfg.base_channels = 4;
  TSN model(cfg);
  auto copy = model.clone();
  EXPECT_EQ(copy->name(), "tsn");
  EXPECT_EQ(nn::param_count(copy->params()), nn::param_count(model.params()));
}

// The serving layer's parity contract rests on every classifier treating
// batch samples independently: forward({x0..xN})[i] must be bit-identical
// to forward({xi}). Audit all three architectures.
template <typename Model>
void expect_batch_invariant(Model& model, int frames) {
  constexpr int kBatch = 3;
  const nn::Tensor batch = random_tensor({kBatch, 1, frames, 12, 18}, 77);
  const nn::Tensor batched_out = model.forward(batch, false);
  ASSERT_EQ(batched_out.dim(0), kBatch);
  const std::size_t sample_elems = batch.numel() / kBatch;
  const std::size_t out_elems = batched_out.numel() / kBatch;
  for (int i = 0; i < kBatch; ++i) {
    nn::Tensor single({1, 1, frames, 12, 18});
    std::copy(batch.data() + i * sample_elems, batch.data() + (i + 1) * sample_elems,
              single.data());
    const nn::Tensor single_out = model.forward(single, false);
    for (std::size_t j = 0; j < out_elems; ++j) {
      ASSERT_EQ(single_out[j], batched_out[i * out_elems + j])
          << model.name() << " sample " << i << " logit " << j
          << ": batching changed the math";
    }
  }
}

TEST(VideoModels, BatchedForwardIsBitIdenticalPerSample) {
  SlowFast slowfast(small_slowfast());
  expect_batch_invariant(slowfast, 16);

  C3DConfig c3d_cfg;
  c3d_cfg.frames = 16;
  c3d_cfg.base_channels = 4;
  C3D c3d(c3d_cfg);
  expect_batch_invariant(c3d, 16);

  TSNConfig tsn_cfg;
  tsn_cfg.frames = 16;
  tsn_cfg.base_channels = 4;
  TSN tsn(tsn_cfg);
  expect_batch_invariant(tsn, 16);
}

TEST(VideoModels, NamesAreDistinct) {
  SlowFast sf(small_slowfast());
  C3DConfig c3;
  c3.frames = 16;
  C3D c(c3);
  TSNConfig t3;
  t3.frames = 16;
  TSN t(t3);
  EXPECT_EQ(sf.name(), "slowfast");
  EXPECT_EQ(c.name(), "c3d");
  EXPECT_EQ(t.name(), "tsn");
}

}  // namespace
}  // namespace safecross::models
