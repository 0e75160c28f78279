// Microbenchmarks (google-benchmark) of the nn substrate: the layer
// costs behind the training benches, and whole-model inference latency
// (what the MS module's "steady inference" cost abstracts).

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "models/c3d.h"
#include "models/slowfast.h"
#include "models/tsn.h"
#include "nn/conv2d.h"
#include "nn/conv3d.h"
#include "nn/gemm.h"

namespace {

using namespace safecross;
using nn::Tensor;

Tensor random_tensor(std::vector<int> shape, std::uint64_t seed) {
  Rng rng(seed);
  Tensor t(std::move(shape));
  for (std::size_t i = 0; i < t.numel(); ++i) t[i] = static_cast<float>(rng.uniform(-1, 1));
  return t;
}

// --- The conv lowering on SlowCross's deployment geometry: one 32-frame
// clip of 56x56 occupancy grids (the SafeCross VC input). The CI smoke
// step runs these so a kernel regression fails loudly.

void BM_Conv2DForwardGemm(benchmark::State& state) {
  nn::Conv2DConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 16;
  nn::Conv2D conv(cfg);
  const Tensor x = random_tensor({4, 8, 56, 56}, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_Conv2DForwardGemm)->Unit(benchmark::kMillisecond);

void BM_Conv3DForwardGemm(benchmark::State& state) {
  nn::Conv3DConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 8;
  nn::Conv3D conv(cfg);
  const Tensor x = random_tensor({1, 4, 32, 56, 56}, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_Conv3DForwardGemm)->Unit(benchmark::kMillisecond);

void BM_Conv3DBackwardGemm(benchmark::State& state) {
  nn::Conv3DConfig cfg;
  cfg.in_channels = 4;
  cfg.out_channels = 8;
  nn::Conv3D conv(cfg);
  const Tensor x = random_tensor({1, 4, 32, 56, 56}, 13);
  const Tensor y = conv.forward(x, true);
  const Tensor g = random_tensor(y.shape(), 14);
  for (auto _ : state) {
    conv.zero_grad();
    benchmark::DoNotOptimize(conv.backward(g));
  }
}
BENCHMARK(BM_Conv3DBackwardGemm)->Unit(benchmark::kMillisecond);

// The raw GEMM core at the three shapes the conv backward emits (NN
// forward, NT weight-grad, TN data-grad), sized like conv3d above.
void BM_SGemm(benchmark::State& state, nn::Trans ta, nn::Trans tb, int m, int n, int k) {
  const Tensor a = random_tensor({ta == nn::Trans::kNo ? m : k, ta == nn::Trans::kNo ? k : m}, 15);
  const Tensor b = random_tensor({tb == nn::Trans::kNo ? k : n, tb == nn::Trans::kNo ? n : k}, 16);
  Tensor c({m, n});
  for (auto _ : state) {
    nn::sgemm(ta, tb, m, n, k, 1.0f, a.data(), a.dim(1), b.data(), b.dim(1), 0.0f, c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
}
void BM_SGemmNN(benchmark::State& state) {
  BM_SGemm(state, nn::Trans::kNo, nn::Trans::kNo, 8, 32 * 56 * 56, 108);
}
BENCHMARK(BM_SGemmNN)->Unit(benchmark::kMillisecond);
void BM_SGemmNT(benchmark::State& state) {
  BM_SGemm(state, nn::Trans::kNo, nn::Trans::kTrans, 8, 108, 32 * 56 * 56);
}
BENCHMARK(BM_SGemmNT)->Unit(benchmark::kMillisecond);
void BM_SGemmTN(benchmark::State& state) {
  BM_SGemm(state, nn::Trans::kTrans, nn::Trans::kNo, 108, 32 * 56 * 56, 8);
}
BENCHMARK(BM_SGemmTN)->Unit(benchmark::kMillisecond);

// Square compute-bound GEMM: the packed microkernel's peak rate.
// 512^3 = 268 MFLOP.
void BM_SGemmSquareMicro(benchmark::State& state) {
  const int n = 512;
  const Tensor a = random_tensor({n, n}, 17);
  const Tensor b = random_tensor({n, n}, 18);
  Tensor c({n, n});
  for (auto _ : state) {
    nn::sgemm(nn::Trans::kNo, nn::Trans::kNo, n, n, n, 1.0f, a.data(), n, b.data(), n, 0.0f,
              c.data(), n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] =
      benchmark::Counter(2.0 * n * n * n * state.iterations() * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SGemmSquareMicro)->Unit(benchmark::kMillisecond);

void BM_Conv2DForward(benchmark::State& state) {
  nn::Conv2DConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 16;
  nn::Conv2D conv(cfg);
  const Tensor x = random_tensor({4, 8, 24, 36}, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_Conv2DForward)->Unit(benchmark::kMillisecond);

void BM_Conv2DBackward(benchmark::State& state) {
  nn::Conv2DConfig cfg;
  cfg.in_channels = 8;
  cfg.out_channels = 16;
  nn::Conv2D conv(cfg);
  const Tensor x = random_tensor({4, 8, 24, 36}, 2);
  const Tensor y = conv.forward(x, true);
  const Tensor g = random_tensor(y.shape(), 3);
  for (auto _ : state) {
    conv.zero_grad();
    benchmark::DoNotOptimize(conv.backward(g));
  }
}
BENCHMARK(BM_Conv2DBackward)->Unit(benchmark::kMillisecond);

void BM_Conv3DForward(benchmark::State& state) {
  nn::Conv3DConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 4;
  nn::Conv3D conv(cfg);
  const Tensor x = random_tensor({4, 2, 32, 12, 18}, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(conv.forward(x, false));
  }
}
BENCHMARK(BM_Conv3DForward)->Unit(benchmark::kMillisecond);

void BM_Conv3DBackward(benchmark::State& state) {
  nn::Conv3DConfig cfg;
  cfg.in_channels = 2;
  cfg.out_channels = 4;
  nn::Conv3D conv(cfg);
  const Tensor x = random_tensor({4, 2, 32, 12, 18}, 5);
  const Tensor y = conv.forward(x, true);
  const Tensor g = random_tensor(y.shape(), 6);
  for (auto _ : state) {
    conv.zero_grad();
    benchmark::DoNotOptimize(conv.backward(g));
  }
}
BENCHMARK(BM_Conv3DBackward)->Unit(benchmark::kMillisecond);

// Whole-model single-clip inference (the paper's real-time requirement:
// one decision per incoming 32-frame window).
template <typename Model, typename Config>
void model_inference(benchmark::State& state, Config cfg) {
  Model model(cfg);
  const Tensor clip = random_tensor({1, 1, 32, 24, 36}, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(clip, false));
  }
}

void BM_SlowFastInference(benchmark::State& state) {
  model_inference<models::SlowFast>(state, models::SlowFastConfig{});
}
BENCHMARK(BM_SlowFastInference)->Unit(benchmark::kMillisecond);

// Whole-model batched inference, as the serving decider runs it: one
// forward over N stacked windows (Arg = N).
void BM_SlowFastForward(benchmark::State& state) {
  models::SlowFast model(models::SlowFastConfig{});
  const Tensor clips = random_tensor({static_cast<int>(state.range(0)), 1, 32, 24, 36}, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forward(clips, false));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SlowFastForward)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

void BM_C3DInference(benchmark::State& state) {
  model_inference<models::C3D>(state, models::C3DConfig{});
}
BENCHMARK(BM_C3DInference)->Unit(benchmark::kMillisecond);

void BM_TSNInference(benchmark::State& state) {
  model_inference<models::TSN>(state, models::TSNConfig{});
}
BENCHMARK(BM_TSNInference)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
