// §V-D — throughput comparison.
//
// The paper's experiment: from ~10 hours of footage across all three
// weathers, collect the segments WITH blind areas (32 of class 0 "car in
// the blind zone, must wait" and 31 of class 1 "zone empty, may turn"),
// classify them with SafeCross, and account throughput: every correctly
// judged-safe scene is a turn that no longer waits for the view to clear
// -> +32/63 ~= +50% left-turn throughput.

#include "bench_common.h"

#include "core/offline.h"
#include "core/throughput.h"

using namespace safecross;

int main() {
  bench::quiet_logs();
  bench::print_header("Sec. V-D: throughput comparison in blind-zone scenes");

  // Train the framework: daytime basic + FSL weather models.
  core::SafeCross sc;

  const auto day = bench::build(dataset::Weather::Daytime,
                                bench::default_segments(dataset::Weather::Daytime), 81);
  core::train_basic(sc, bench::ptrs(day.segments), {.epochs = 8});
  const auto snow = bench::build(dataset::Weather::Snow,
                                 bench::default_segments(dataset::Weather::Snow), 82);
  core::adapt_weather(sc, dataset::Weather::Snow, bench::ptrs(snow.segments));
  const auto rain = bench::build(dataset::Weather::Rain, 34, 83);
  core::adapt_weather(sc, dataset::Weather::Rain, bench::ptrs(rain.segments));

  // Fresh-seed pools to harvest blind-area test segments from (the
  // paper's "10 hours video data in the daytime, rain, and snow" —
  // weighted 6:1:3 like the footage).
  std::vector<dataset::VideoSegment> pool;
  const std::pair<dataset::Weather, std::size_t> mix[] = {
      {dataset::Weather::Daytime, bench::scaled(330)},
      {dataset::Weather::Rain, bench::scaled(55)},
      {dataset::Weather::Snow, bench::scaled(165)},
  };
  for (const auto& [w, count] : mix) {
    auto ds = bench::build(w, count, 281 + static_cast<int>(w));
    for (auto& s : ds.segments) pool.push_back(std::move(s));
  }
  auto pool_ptrs = bench::ptrs(pool);
  const auto blind = core::select_blind_test_set(pool_ptrs, /*class0=*/32, /*class1=*/31);

  const core::ThroughputReport r = core::throughput_experiment(sc, blind);

  // Per-weather breakdown of the verdicts.
  for (const auto w :
       {dataset::Weather::Daytime, dataset::Weather::Rain, dataset::Weather::Snow}) {
    std::size_t n = 0, ok = 0;
    for (const auto* seg : blind) {
      if (seg->weather != w) continue;
      ++n;
      if (sc.classify_as(w, seg->frames).predicted_class == seg->binary_label()) ++ok;
    }
    if (n > 0) {
      std::printf("  [%s] %zu blind segments, accuracy %.3f\n", vision::weather_name(w), n,
                  static_cast<double>(ok) / n);
    }
  }

  std::printf("  blind-zone test segments: %zu (paper: 63)\n", r.blind_segments);
  std::printf("    class 0 (car hidden, must wait): %zu (paper: 32)\n", r.class0);
  std::printf("    class 1 (zone empty, may turn):  %zu (paper: 31)\n", r.class1);
  std::printf("  classification accuracy: %.4f (paper: 1.0000)\n", r.accuracy());
  std::printf("  judged safe to turn now: %zu\n", r.judged_safe);
  std::printf("  missed threats (judged safe, car hidden): %zu (safety criterion: 0)\n",
              r.missed_threats);
  std::printf("  left-turn throughput gain: +%.0f%% (paper: +50%% — 32/63)\n",
              100.0 * r.throughput_gain());
  std::printf("\n  shape check: roughly half of blind-zone scenes are actually safe; SafeCross\n"
              "  releases them without waiting, while keeping missed threats at/near zero.\n");
  return 0;
}
