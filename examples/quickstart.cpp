// Quickstart: the SafeCross public API in ~60 lines of user code.
//
//   1. Generate labeled segments from the intersection simulator.
//   2. Train the basic (daytime) SlowFast model.
//   3. Adapt a rain model from it with few samples (FL module).
//   4. Switch models (MS module) and classify windows.
//
// Runs in well under a minute on one core.

#include <cstdio>

#include "common/logging.h"
#include "core/offline.h"
#include "dataset/builder.h"

using namespace safecross;

int main() {
  set_log_level(LogLevel::Warn);

  // 1) Data: ~150 daytime segments and the paper's scarce 34 rain ones.
  dataset::BuildRequest day_req;
  day_req.weather = dataset::Weather::Daytime;
  day_req.target_segments = 150;
  day_req.seed = 1;
  const auto day = dataset::build_dataset(day_req);

  dataset::BuildRequest rain_req = day_req;
  rain_req.weather = dataset::Weather::Rain;
  rain_req.target_segments = 34;
  rain_req.seed = 2;
  const auto rain = dataset::build_dataset(rain_req);

  std::printf("generated %zu daytime and %zu rain segments\n", day.segments.size(),
              rain.segments.size());

  // 2) + 3) Train the engine's models.
  core::SafeCross safecross;

  std::vector<const dataset::VideoSegment*> day_ptrs;
  for (const auto& s : day.segments) day_ptrs.push_back(&s);
  std::vector<const dataset::VideoSegment*> rain_ptrs;
  for (const auto& s : rain.segments) rain_ptrs.push_back(&s);

  std::printf("training basic model on daytime data...\n");
  core::train_basic(safecross, day_ptrs, {.epochs = 5});
  std::printf("adapting rain model from the basic weights (few-shot)...\n");
  core::adapt_weather(safecross, dataset::Weather::Rain, rain_ptrs, core::fewshot_schedule(5));

  // 4) Classify a few held-back windows under each weather.
  switching::ModelSwitcher switcher = core::paper_switcher(safecross);
  for (const auto weather : {dataset::Weather::Daytime, dataset::Weather::Rain}) {
    const double delay = switcher.switch_to(vision::weather_name(weather));
    std::printf("\nscene -> %s (model switch: %.2f ms)\n", vision::weather_name(weather), delay);
    const auto& segments = weather == dataset::Weather::Daytime ? day.segments : rain.segments;
    int shown = 0;
    std::size_t correct = 0, total = 0;
    for (const auto& seg : segments) {
      const auto d = safecross.classify_as(weather, seg.frames);
      ++total;
      if (d.predicted_class == seg.binary_label()) ++correct;
      if (shown < 3) {
        std::printf("  t=%7.1fs  truth=%s  ->  %s (P(danger)=%.2f)%s\n", seg.sim_time,
                    seg.binary_label() == 0 ? "danger" : "safe  ",
                    d.warn ? "WARN: do not turn" : "clear: turn ok   ", d.prob_danger,
                    d.predicted_class == seg.binary_label() ? "" : "   <- misclassified");
        ++shown;
      }
    }
    std::printf("  accuracy over all %zu %s segments: %.3f\n", total,
                vision::weather_name(weather), static_cast<double>(correct) / total);
  }
  return 0;
}
