// Switch-storm properties for the serving path (DESIGN.md §14), seeded
// and randomized: random switch schedules (weather flips at random
// frames, always delay_ms = 0 so every decision stays model-gated),
// random queue depths, three weathers over a two-resident pipelined
// cache. Invariants, per seed:
//   * VERDICT PARITY — the batched run under SwitchMode::Pipelined and
//     under SwitchMode::StopAndStart both produce decision streams
//     bit-identical to the switch-free sequential oracle, lineage
//     (model_weather, epoch) included: residency is a latency model and
//     must never touch a verdict;
//   * NO EPOCH MIXING — every fired batch is uniform in (weather,
//     epoch); pre- and post-switch windows of the same weather never
//     co-batch (the unit-level twin lives in test_property_batcher.cpp);
//   * NO STARVATION — no stream sheds, goes down, or finishes short
//     while its model is mid-load: servability holds batches back, it
//     never drops them;
//   * the pipelined cache does real work: loads commit, and with three
//     weathers over two residencies something is evicted.

#include "serving/stream_server.h"

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "models/slowfast.h"

namespace safecross::serving {
namespace {

using core::SafeCross;
using core::SafeCrossConfig;
using dataset::Weather;

constexpr Weather kStormWeathers[] = {Weather::Daytime, Weather::Rain, Weather::Snow};

SafeCrossConfig tiny_config() {
  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  return cfg;
}

std::unique_ptr<SafeCross> storm_engine() {
  auto sc = std::make_unique<SafeCross>(tiny_config());
  for (Weather w : kStormWeathers) {
    models::SlowFastConfig mc = tiny_config().model;
    mc.init_seed = 100u + static_cast<std::uint64_t>(w);
    sc->set_model(w, std::make_unique<models::SlowFast>(mc));
  }
  return sc;
}

/// A randomized storm scenario: per-stream switch schedules with random
/// flip frames and targets, random queue depth.
/// Everything decision-bearing derives from `base` — the same base must
/// describe the same scenario in every switch mode.
StreamServerConfig storm_config(std::uint64_t base) {
  Rng rng(base ^ 0x570A2Dull);
  StreamServerConfig cfg;
  cfg.frames = 3600;
  cfg.record_traces = true;
  cfg.shed_on_overload = false;
  cfg.queue_capacity = 2 + rng.uniform_int(std::uint64_t{6});
  cfg.model_cache.capacity_models = 2;
  cfg.model_cache.bytes_scale = 1.0 / 4096.0;  // ~33 KB per load, full shape
  cfg.model_cache.executor.bandwidth_gbps = 64.0;
  cfg.model_cache.executor.compute_scale = 0.001;
  for (std::uint64_t i = 0; i < 2; ++i) {
    StreamConfig s;
    s.name = "cam" + std::to_string(i);
    s.weather = i == 0 ? Weather::Daytime : Weather::Rain;
    s.sim_seed = base + 10 * i;
    s.collector_seed = base + 10 * i + 1;
    s.fault_seed = base + 10 * i + 2;
    // Random storm: flips every 80–230 frames to a random *different*
    // weather, delay 0 (no fail-safe gating — all verdicts model-gated
    // and comparable 1:1 with the oracle).
    Weather current = s.weather;
    for (std::size_t frame = 150 + rng.uniform_int(std::uint64_t{80});
         frame < cfg.frames; frame += 80 + rng.uniform_int(std::uint64_t{150})) {
      Weather next = current;
      while (next == current) {
        next = kStormWeathers[rng.uniform_int(std::uint64_t{3})];
      }
      s.model_schedule.push_back({frame, next, 0.0});
      current = next;
    }
    cfg.streams.push_back(s);
  }
  return cfg;
}

/// Bit-identical decision streams, model lineage included.
void expect_matches_oracle(const StreamServer& got, const StreamServer& oracle) {
  ASSERT_EQ(got.stream_count(), oracle.stream_count());
  for (std::size_t i = 0; i < got.stream_count(); ++i) {
    const auto& g = got.stream(i);
    const auto& w = oracle.stream(i);
    SCOPED_TRACE("stream " + g.config().name);
    EXPECT_EQ(g.frames_run(), w.frames_run());
    const auto& gt = g.trace();
    const auto& wt = w.trace();
    ASSERT_EQ(gt.size(), wt.size()) << "a decision was lost or duplicated";
    for (std::size_t s = 0; s < gt.size(); ++s) {
      SCOPED_TRACE("seq " + std::to_string(s));
      EXPECT_EQ(gt[s].frame, wt[s].frame);
      EXPECT_EQ(gt[s].danger_truth, wt[s].danger_truth);
      EXPECT_EQ(gt[s].predicted_class, wt[s].predicted_class);
      EXPECT_EQ(gt[s].prob_danger, wt[s].prob_danger) << "verdict not bit-identical";
      EXPECT_EQ(gt[s].warn, wt[s].warn);
      EXPECT_EQ(gt[s].source, wt[s].source);
      EXPECT_EQ(gt[s].model_weather, wt[s].model_weather) << "model lineage diverged";
      EXPECT_EQ(gt[s].epoch, wt[s].epoch) << "switch-epoch lineage diverged";
    }
    EXPECT_EQ(g.scorecard().decisions(), w.scorecard().decisions());
    EXPECT_EQ(g.scorecard().warnings(), w.scorecard().warnings());
    EXPECT_EQ(g.scorecard().missed_threats(), w.scorecard().missed_threats());
    EXPECT_EQ(g.scorecard().false_warnings(), w.scorecard().false_warnings());
  }
}

/// Starvation and conservation audit for a finished batched run.
void expect_no_starvation(const StreamServer& server) {
  EXPECT_EQ(server.windows_shed_total(), 0u) << "a switch shed a window";
  for (std::size_t i = 0; i < server.stream_count(); ++i) {
    EXPECT_FALSE(server.stream_down(i)) << "stream " << i << " starved out";
  }
  std::size_t batched = 0;
  for (const BatchRecord& b : server.batch_log()) {
    EXPECT_GE(b.size, 1u);
    batched += b.size;
  }
  EXPECT_EQ(batched, server.windows_batched())
      << "a batch fired windows the log never saw (or vice versa)";
}

void run_storm_seed(std::uint64_t base) {
  auto sc = storm_engine();
  const StreamServerConfig cfg = storm_config(base);

  StreamServer oracle(*sc, cfg);  // Legacy sequential = switch-free oracle
  oracle.run_sequential();
  ASSERT_GE(oracle.total_decisions(), 12u) << "weak scenario for base " << base;

  // Stop-and-start: single residency, blocking loads inside decide_batch.
  StreamServerConfig stop_cfg = cfg;
  stop_cfg.switch_mode = SwitchMode::StopAndStart;
  StreamServer stop(*sc, stop_cfg);
  stop.run();
  expect_matches_oracle(stop, oracle);
  expect_no_starvation(stop);
  EXPECT_GE(stop.switches_committed(), 1u);

  // Pipelined: dual residency, loader-thread transfers, servability
  // holdback. Same verdicts, and the cache visibly worked.
  StreamServerConfig pipe_cfg = cfg;
  pipe_cfg.switch_mode = SwitchMode::Pipelined;
  StreamServer pipe(*sc, pipe_cfg);
  pipe.run();
  expect_matches_oracle(pipe, oracle);
  expect_no_starvation(pipe);
  EXPECT_GE(pipe.switches_committed(), 1u);
  ASSERT_NE(pipe.model_cache(), nullptr);
  EXPECT_GE(pipe.model_cache()->stats().loads, 2u)
      << "a storm over three weathers must load more than the boot model";
  EXPECT_EQ(pipe.model_cache()->resident_count(), 2u)
      << "dual residency: the cache must hold exactly capacity_models models";

  // Verdicts equal across all three modes implies pipelined == stop-and-
  // start too, closing the ISSUE's three-way parity triangle.
}

TEST(SwitchStormProperty, Seed85000AllModesBitIdentical) { run_storm_seed(85000); }
TEST(SwitchStormProperty, Seed87000AllModesBitIdentical) { run_storm_seed(87000); }
TEST(SwitchStormProperty, Seed88000AllModesBitIdentical) { run_storm_seed(88000); }
TEST(SwitchStormProperty, Seed95000AllModesBitIdentical) { run_storm_seed(95000); }
TEST(SwitchStormProperty, Seed101000AllModesBitIdentical) { run_storm_seed(101000); }

// The batched Legacy path (the pre-existing behaviour) must be wholly
// unaffected by the new machinery: no cache is built, no switch is
// journaled or counted, and parity still holds.
TEST(SwitchStormProperty, LegacyModeBuildsNoCacheAndStaysBitIdentical) {
  auto sc = storm_engine();
  const StreamServerConfig cfg = storm_config(87000);
  StreamServer oracle(*sc, cfg);
  oracle.run_sequential();

  StreamServer legacy(*sc, cfg);  // switch_mode defaults to Legacy
  legacy.run();
  expect_matches_oracle(legacy, oracle);
  EXPECT_EQ(legacy.model_cache(), nullptr);
  EXPECT_EQ(legacy.switches_committed(), 0u);
  EXPECT_EQ(legacy.switches_aborted(), 0u);
}

// Epochs partition each stream's decisions into contiguous runs: the
// epoch is stamped at capture, increments only at a scheduled flip, and
// survives batching untouched — so per-stream epochs are non-decreasing
// in seq order and change exactly at schedule boundaries.
TEST(SwitchStormProperty, EpochLineageIsMonotonePerStream) {
  auto sc = storm_engine();
  const StreamServerConfig cfg = storm_config(88000);
  StreamServerConfig pipe_cfg = cfg;
  pipe_cfg.switch_mode = SwitchMode::Pipelined;
  StreamServer pipe(*sc, pipe_cfg);
  pipe.run();
  for (std::size_t i = 0; i < pipe.stream_count(); ++i) {
    const auto& trace = pipe.stream(i).trace();
    for (std::size_t s = 1; s < trace.size(); ++s) {
      EXPECT_GE(trace[s].epoch, trace[s - 1].epoch)
          << "stream " << i << " seq " << s << ": epoch went backwards";
      EXPECT_GE(trace[s].frame, trace[s - 1].frame);
    }
  }
}

}  // namespace
}  // namespace safecross::serving
