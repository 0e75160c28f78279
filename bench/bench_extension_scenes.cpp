// Extension beyond the paper (§VI-B "increase the number of extreme
// scenes"): Night and Fog conditions through the full pipeline —
// weather-specific physics, rendering (headlights / fog veil), few-shot
// adaptation from the daytime basic model, detection from raw frames, and
// PipeSwitch swapping across all five per-scene models.

#include "bench_common.h"

#include "core/offline.h"
#include "core/weather_detect.h"
#include "sim/camera.h"

using namespace safecross;

int main() {
  bench::quiet_logs();
  bench::print_header("Extension: Night & Fog scenes (beyond the paper's Table III)");

  // Basic model + the two adapted extension-scene models.
  core::SafeCross sc;

  const auto day = bench::build(dataset::Weather::Daytime,
                                bench::default_segments(dataset::Weather::Daytime), 501);
  core::train_basic(sc, bench::ptrs(day.segments), {.epochs = 8});

  for (const auto w : {dataset::Weather::Night, dataset::Weather::Fog}) {
    const auto pool = bench::build(w, bench::default_segments(w), 502 + static_cast<int>(w));
    core::adapt_weather(sc, w, bench::ptrs(pool.segments));
  }
  switching::ModelSwitcher switcher = core::paper_switcher(sc);

  std::printf("  %-10s %12s %14s %10s %16s\n", "scene", "Top1", "MeanCls", "switch-ms",
              "detected-as");
  for (const auto w : {dataset::Weather::Daytime, dataset::Weather::Night, dataset::Weather::Fog}) {
    const double switch_ms = switcher.switch_to(vision::weather_name(w));
    const auto holdout = bench::build(w, 80, 602 + static_cast<int>(w));
    const auto eval =
        fewshot::evaluate(sc.model_for(w), bench::ptrs(holdout.segments));

    // Does the frame-level detector identify the scene?
    sim::TrafficSimulator sim(sim::weather_params(w), 700 + static_cast<int>(w));
    const sim::CameraModel cam(sim.intersection().geometry());
    Rng rng(9);
    core::WeatherDetector detector;
    for (int i = 0; i < 20; ++i) {
      sim.step();
      detector.observe(cam.render(sim, rng));
    }
    std::printf("  %-10s %12.4f %14.4f %10.2f %16s\n", vision::weather_name(w), eval.top1(),
                eval.mean_class(), switch_ms,
                vision::weather_name(detector.estimate().weather));
  }

  std::printf("\n  shape check: night/fog models adapted from the daytime weights stay\n"
              "  well above chance despite headlight blooms / fog extinction; the\n"
              "  detector identifies all scenes; every switch stays in PipeSwitch's\n"
              "  millisecond regime.\n");
  return 0;
}
