// Microbenchmarks (google-benchmark) of the vision substrate — the
// per-frame costs behind Table II's end-to-end numbers.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "sim/camera.h"
#include "sim/traffic.h"
#include "vision/background_subtraction.h"
#include "vision/blobs.h"
#include "vision/homography.h"
#include "vision/morphology.h"
#include "vision/optical_flow.h"

namespace {

using namespace safecross;

// A realistic pair of consecutive camera frames with traffic.
struct Frames {
  vision::Image prev;
  vision::Image cur;
  vision::Image mask;  // a plausible foreground mask
};

const Frames& frames() {
  static const Frames f = [] {
    sim::TrafficSimulator sim(sim::weather_params(vision::Weather::Daytime), 5);
    const sim::CameraModel cam(sim.intersection().geometry());
    Rng rng(6);
    for (int i = 0; i < 30 * 40; ++i) sim.step();
    Frames out;
    out.prev = cam.render(sim, rng);
    sim.step();
    out.cur = cam.render(sim, rng);
    out.mask = vision::Image::absdiff(out.cur, out.prev).threshold(0.1f);
    return out;
  }();
  return f;
}

void BM_BackgroundSubtraction(benchmark::State& state) {
  vision::RunningAverageBackground bg;
  bg.apply(frames().prev);
  for (int i = 0; i < 12; ++i) bg.apply(frames().prev);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bg.apply(frames().cur));
  }
}
BENCHMARK(BM_BackgroundSubtraction)->Unit(benchmark::kMillisecond);

// The packed path the collector serves: update, threshold and pack in one
// pass into the subtractor's own BitMask, then opening on the bits. The
// float-adapter bench above adds the widening to an Image.
void BM_BackgroundSubtractionBits(benchmark::State& state) {
  vision::RunningAverageBackground bg;
  bg.apply_bits(frames().prev);
  for (int i = 0; i < 12; ++i) bg.apply_bits(frames().prev);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bg.apply_bits(frames().cur).row(0));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BackgroundSubtractionBits)->Unit(benchmark::kMicrosecond);

// Float adapter: pack the Image, open the bits, widen back.
void BM_MorphologyOpening(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::opening(frames().mask));
  }
}
BENCHMARK(BM_MorphologyOpening)->Unit(benchmark::kMillisecond);

// Opening on an already-packed mask, reusing its scratch rows.
void BM_MorphologyOpeningBits(benchmark::State& state) {
  const vision::BitMask packed = vision::BitMask::from_image(frames().mask);
  vision::BitMask mask;
  vision::BitMask scratch;
  for (auto _ : state) {
    mask = packed;
    vision::opening(mask, scratch);
    benchmark::DoNotOptimize(mask.row(0));
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MorphologyOpeningBits)->Unit(benchmark::kMicrosecond);

void BM_FindBlobs(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::find_blobs(frames().mask, 3));
  }
}
BENCHMARK(BM_FindBlobs)->Unit(benchmark::kMillisecond);

void BM_SparseOpticalFlow(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::sparse_optical_flow(frames().prev, frames().cur));
  }
}
BENCHMARK(BM_SparseOpticalFlow)->Unit(benchmark::kMillisecond);

void BM_DenseOpticalFlow(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(vision::dense_optical_flow(frames().prev, frames().cur));
  }
}
BENCHMARK(BM_DenseOpticalFlow)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_HomographyWarpToGrid(benchmark::State& state) {
  sim::TrafficSimulator sim(sim::weather_params(vision::Weather::Daytime), 5);
  const sim::CameraModel cam(sim.intersection().geometry());
  const vision::Homography h = cam.image_to_grid(36, 24);
  for (auto _ : state) {
    benchmark::DoNotOptimize(h.warp(frames().mask, 36, 24));
  }
}
BENCHMARK(BM_HomographyWarpToGrid)->Unit(benchmark::kMillisecond);

void BM_CameraRender(benchmark::State& state) {
  sim::TrafficSimulator sim(sim::weather_params(vision::Weather::Snow), 7);
  const sim::CameraModel cam(sim.intersection().geometry());
  Rng rng(8);
  for (int i = 0; i < 600; ++i) sim.step();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cam.render(sim, rng));
  }
}
BENCHMARK(BM_CameraRender)->Unit(benchmark::kMillisecond);

void BM_SimulatorStep(benchmark::State& state) {
  sim::TrafficSimulator sim(sim::weather_params(vision::Weather::Daytime), 9);
  for (int i = 0; i < 30 * 120; ++i) sim.step();
  for (auto _ : state) {
    sim.step();
    benchmark::DoNotOptimize(sim.vehicles().size());
  }
}
BENCHMARK(BM_SimulatorStep)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
