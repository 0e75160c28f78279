// Live deployment: SafeCross watching an intersection it has never seen
// (fresh traffic seed), issuing blind-area warnings in real time while
// the simulator's ground truth scores every decision.

#include <cstdio>

#include "common/logging.h"
#include "core/offline.h"
#include "dataset/builder.h"
#include "serving/stream.h"

using namespace safecross;

int main() {
  set_log_level(LogLevel::Warn);

  // Train the daytime basic model.
  dataset::BuildRequest req;
  req.weather = dataset::Weather::Daytime;
  req.target_segments = 150;
  req.seed = 5;
  const auto day = dataset::build_dataset(req);
  std::vector<const dataset::VideoSegment*> train;
  for (const auto& s : day.segments) train.push_back(&s);

  core::SafeCross sc;
  std::printf("training on %zu segments...\n", train.size());
  core::train_basic(sc, train, {.epochs = 5});

  // Deploy on fresh traffic: one camera stream, decided the moment each
  // decision falls due.
  serving::StreamConfig camera;
  camera.weather = dataset::Weather::Daytime;
  camera.sim_seed = 987654;
  camera.collector_seed = 42;
  serving::StreamContext stream(camera);
  const sim::TrafficSimulator& live = stream.sim();

  std::printf("monitoring live traffic (20 sim-minutes)...\n\n");
  int printed = 0;
  while (live.time() < 20 * 60.0) {
    const std::optional<serving::ReadyWindow> w = stream.tick();
    if (!w) continue;
    const core::SafeCross::Decision d =
        w->gate == runtime::DecisionSource::Model
            ? sc.classify_as(w->model_weather, w->window)
            : core::SafeCross::fail_safe_decision(w->gate);
    stream.apply(*w, d.predicted_class, d.prob_danger, d.warn, d.source);
    if (printed < 12) {
      std::printf("  t=%7.1fs  blind=%d  P(danger)=%.2f -> %-18s truth=%s%s\n", live.time(),
                  live.blind_area_present(camera.vp.approach) ? 1 : 0, d.prob_danger,
                  d.warn ? "WARN (hold)" : "clear (turn ok)",
                  w->danger_truth ? "danger" : "safe",
                  (d.predicted_class == 0) == w->danger_truth ? "" : "  <- wrong");
      ++printed;
    }
  }

  const core::StreamScorecard& score = stream.scorecard();
  std::printf("\nscorecard after %.0f sim-minutes:\n", live.time() / 60.0);
  std::printf("  decisions        %zu\n", score.decisions());
  std::printf("  warnings issued  %zu\n", score.warnings());
  std::printf("  accuracy         %.3f\n", score.accuracy());
  std::printf("  missed threats   %zu (said safe while a threat approached)\n",
              score.missed_threats());
  std::printf("                   (these cluster at horizon-entry moments: a fast vehicle\n"
              "                    entering the camera's field of view is ground-truth danger\n"
              "                    a few frames before the occupancy window can show it)\n");
  std::printf("  false warnings   %zu (held a turn that was safe)\n", score.false_warnings());
  std::printf("  left turns completed at the junction: %llu\n",
              static_cast<unsigned long long>(live.completed_turns()));
  return 0;
}
