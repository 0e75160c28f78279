// Scene adaptation end to end: the weather turns, the detector notices
// from the camera frames alone, and the MS module swaps in the matching
// model — in milliseconds with PipeSwitch, in seconds with Stop-and-Start
// (during which warnings are unavailable: frames * 30 Hz are lost).

#include <cstdio>

#include "common/logging.h"
#include "core/offline.h"
#include "core/weather_detect.h"
#include "dataset/builder.h"
#include "sim/camera.h"

using namespace safecross;

namespace {

std::vector<const dataset::VideoSegment*> ptrs(const std::vector<dataset::VideoSegment>& v) {
  std::vector<const dataset::VideoSegment*> out;
  for (const auto& s : v) out.push_back(&s);
  return out;
}

core::SafeCross make_framework() {
  core::SafeCross sc;
  const auto day = dataset::build_dataset({dataset::Weather::Daytime, 120, 24.0, 11, {}});
  core::train_basic(sc, ptrs(day.segments), {.epochs = 4});
  const auto rain = dataset::build_dataset({dataset::Weather::Rain, 34, 24.0, 12, {}});
  core::adapt_weather(sc, dataset::Weather::Rain, ptrs(rain.segments), core::fewshot_schedule(4));
  const auto snow = dataset::build_dataset({dataset::Weather::Snow, 60, 24.0, 13, {}});
  core::adapt_weather(sc, dataset::Weather::Snow, ptrs(snow.segments), core::fewshot_schedule(4));
  return sc;
}

}  // namespace

int main() {
  set_log_level(LogLevel::Warn);
  std::printf("training per-weather models (daytime basic + few-shot rain/snow)...\n");
  const core::SafeCross sc = make_framework();

  for (const auto policy :
       {switching::SwitchPolicy::PipeSwitch, switching::SwitchPolicy::StopAndStart}) {
    switching::ModelSwitcher switcher = core::paper_switcher(sc, {}, policy);
    std::printf("\n--- policy: %s ---\n", switching::policy_name(policy));

    double lost_warning_s = 0.0;
    // The day at this intersection: clear morning, rain, then snow.
    const dataset::Weather sequence[] = {dataset::Weather::Daytime, dataset::Weather::Rain,
                                         dataset::Weather::Snow, dataset::Weather::Daytime};
    for (const auto weather : sequence) {
      // The detector watches raw frames of the new scene.
      sim::TrafficSimulator sim(sim::weather_params(weather), 100 + static_cast<int>(weather));
      const sim::CameraModel cam(sim.intersection().geometry());
      Rng rng(3);
      core::WeatherDetector detector;
      int frames = 0;
      core::WeatherEstimate estimate;
      do {
        sim.step();
        detector.observe(cam.render(sim, rng));
        estimate = detector.estimate();
        ++frames;
      } while (!estimate.confident && frames < 300);

      const double delay_ms = switcher.switch_to(vision::weather_name(estimate.weather));
      lost_warning_s += delay_ms / 1000.0;
      std::printf(
          "  actual=%-8s detected=%-8s (density %.4f, blob h %.1f px, %d frames)"
          "  switch %8.2f ms\n",
          vision::weather_name(weather), vision::weather_name(estimate.weather),
          estimate.speckle_density, estimate.mean_blob_height, frames, delay_ms);
    }
    std::printf("  total warning downtime across the day: %.3f s (%s)\n", lost_warning_s,
                policy == switching::SwitchPolicy::PipeSwitch
                    ? "imperceptible at 30 Hz"
                    : "seconds of blind-area warnings lost per weather change");
  }
  return 0;
}
