// Multi-stream serving parity: the batched StreamServer must produce
// verdicts bit-identical to the sequential reference — across batch
// sizes, mixed weathers, a mid-run model switch, and producer crashes
// within the retry budget — and must isolate a stream whose producer
// dies for good. Overload must shed with exact accounting, never stall.

#include "serving/stream_server.h"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "runtime/fault_injector.h"
#include "models/slowfast.h"

namespace safecross::serving {
namespace {

using core::SafeCross;
using core::SafeCrossConfig;
using dataset::Weather;

SafeCrossConfig tiny_config() {
  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  return cfg;
}

/// The init seed engine_with_models gives `weather`'s model.
std::uint64_t model_seed(Weather weather) { return 100u + static_cast<std::uint64_t>(weather); }

/// Engine holding, for each (weather, seed) pair, an untrained model
/// initialised from that seed.
std::unique_ptr<SafeCross> engine_with_seeds(
    const std::vector<std::pair<Weather, std::uint64_t>>& models) {
  auto sc = std::make_unique<SafeCross>(tiny_config());
  for (const auto& [weather, seed] : models) {
    models::SlowFastConfig mc = tiny_config().model;
    mc.init_seed = seed;
    sc->set_model(weather, std::make_unique<models::SlowFast>(mc));
  }
  return sc;
}

/// Engine with one untrained (but deterministically initialised) model
/// per requested weather — differently seeded so each weather's verdicts
/// genuinely differ and a wrong-model bug cannot hide.
std::unique_ptr<SafeCross> engine_with_models(const std::vector<Weather>& weathers) {
  std::vector<std::pair<Weather, std::uint64_t>> models;
  for (Weather w : weathers) models.emplace_back(w, model_seed(w));
  return engine_with_seeds(models);
}

StreamConfig make_stream(const std::string& name, Weather weather, std::uint64_t seed_base) {
  StreamConfig sc;
  sc.name = name;
  sc.weather = weather;
  sc.sim_seed = seed_base;
  sc.collector_seed = seed_base + 1;
  sc.fault_seed = seed_base + 2;
  return sc;
}

runtime::BackoffPolicy fast_backoff(int max_restarts = 5) {
  runtime::BackoffPolicy policy;
  policy.initial_ms = 0.5;
  policy.max_ms = 5.0;
  policy.max_restarts = max_restarts;
  return policy;
}

/// Per-stream verdict traces and scorecards must agree exactly. The
/// parity contract is bitwise, so even prob_danger compares with EQ.
void expect_servers_agree(const StreamServer& batched, const StreamServer& reference) {
  ASSERT_EQ(batched.stream_count(), reference.stream_count());
  for (std::size_t i = 0; i < batched.stream_count(); ++i) {
    const auto& b = batched.stream(i);
    const auto& r = reference.stream(i);
    SCOPED_TRACE("stream " + b.config().name);
    EXPECT_EQ(b.frames_run(), r.frames_run());
    EXPECT_EQ(b.windows_produced(), r.windows_produced());
    const auto& bt = b.trace();
    const auto& rt = r.trace();
    ASSERT_EQ(bt.size(), rt.size());
    for (std::size_t s = 0; s < bt.size(); ++s) {
      SCOPED_TRACE("seq " + std::to_string(s));
      EXPECT_EQ(bt[s].frame, rt[s].frame);
      EXPECT_EQ(bt[s].danger_truth, rt[s].danger_truth);
      EXPECT_EQ(bt[s].predicted_class, rt[s].predicted_class);
      EXPECT_EQ(bt[s].prob_danger, rt[s].prob_danger) << "verdicts must be bit-identical";
      EXPECT_EQ(bt[s].warn, rt[s].warn);
      EXPECT_EQ(bt[s].source, rt[s].source);
    }
    EXPECT_EQ(b.scorecard().decisions(), r.scorecard().decisions());
    EXPECT_EQ(b.scorecard().warnings(), r.scorecard().warnings());
    EXPECT_EQ(b.scorecard().correct(), r.scorecard().correct());
    EXPECT_EQ(b.scorecard().missed_threats(), r.scorecard().missed_threats());
    EXPECT_EQ(b.scorecard().false_warnings(), r.scorecard().false_warnings());
    EXPECT_EQ(b.scorecard().fail_safe_decisions(), r.scorecard().fail_safe_decisions());
    EXPECT_EQ(b.scorecard().decision_opportunities(),
              r.scorecard().decision_opportunities());
  }
}

StreamServerConfig parity_base_config() {
  StreamServerConfig cfg;
  cfg.frames = 30 * 60;
  cfg.record_traces = true;
  cfg.shed_on_overload = false;  // parity runs must lose nothing
  return cfg;
}

TEST(StreamServer, BatchedMatchesSequentialSingleWeather) {
  auto sc = engine_with_models({Weather::Daytime});
  StreamServerConfig cfg = parity_base_config();
  for (int i = 0; i < 3; ++i) {
    cfg.streams.push_back(make_stream("cam" + std::to_string(i), Weather::Daytime,
                                      1000 + 10 * static_cast<std::uint64_t>(i)));
  }
  cfg.batcher.max_batch = 3;

  StreamServer batched(*sc, cfg);
  batched.run();
  StreamServer reference(*sc, cfg);
  reference.run_sequential();

  ASSERT_GT(batched.total_decisions(), 0u) << "the scenario produced no decisions";
  EXPECT_EQ(batched.windows_shed_total(), 0u);
  expect_servers_agree(batched, reference);
}

TEST(StreamServer, BatchedMatchesSequentialAcrossBatchSizes) {
  auto sc = engine_with_models({Weather::Daytime});
  StreamServerConfig cfg = parity_base_config();
  cfg.frames = 30 * 40;
  for (int i = 0; i < 3; ++i) {
    cfg.streams.push_back(make_stream("cam" + std::to_string(i), Weather::Daytime,
                                      2000 + 10 * static_cast<std::uint64_t>(i)));
  }

  StreamServerConfig seq_cfg = cfg;
  StreamServer reference(*sc, seq_cfg);
  reference.run_sequential();

  for (std::size_t max_batch : {std::size_t{1}, std::size_t{3}, cfg.streams.size()}) {
    SCOPED_TRACE("max_batch " + std::to_string(max_batch));
    StreamServerConfig bcfg = cfg;
    bcfg.batcher.max_batch = max_batch;
    StreamServer batched(*sc, bcfg);
    batched.run();
    expect_servers_agree(batched, reference);
    if (max_batch == 1) {
      // Degenerate batching: every fired batch is a single window.
      for (const BatchRecord& rec : batched.batch_log()) EXPECT_EQ(rec.size, 1u);
    }
  }
}

// A slow decider still fills batches: windows that arrive while one batch
// is decided wait in their queues and leave together in the next dispatch
// round, so work-conserving dispatch needs no batch deadline to batch.
TEST(StreamServer, SlowDeciderStillFillsBatches) {
  auto sc = engine_with_models({Weather::Daytime});
  StreamServerConfig cfg = parity_base_config();
  for (int i = 0; i < 3; ++i) {
    cfg.streams.push_back(make_stream("cam" + std::to_string(i), Weather::Daytime,
                                      1000 + 10 * static_cast<std::uint64_t>(i)));
  }
  cfg.batcher.max_batch = 3;
  cfg.decide_delay_ms = 5.0;

  StreamServer batched(*sc, cfg);
  batched.run();
  StreamServer reference(*sc, cfg);
  reference.run_sequential();

  ASSERT_GT(batched.total_decisions(), 0u);
  expect_servers_agree(batched, reference);
  std::size_t full = 0;
  for (const BatchRecord& rec : batched.batch_log()) {
    ASSERT_LE(rec.size, cfg.batcher.max_batch);
    EXPECT_EQ(rec.fired_by_deadline, rec.size < cfg.batcher.max_batch);
    full += rec.size == cfg.batcher.max_batch;
  }
  EXPECT_GT(full, 0u) << "no batch filled behind a slow decider";
}

// BatchRecord::max_wait_ms counts from capture, not from staging. With
// max_batch above what the queues can hold, each dispatch round fires one
// batch right after staging it, so a wait counted from staging would read
// ~0 on every batch; counted from capture, it shows the time the windows
// spent queued behind the previous (slow) batch.
TEST(StreamServer, BatchWaitCountsFromCapture) {
  auto sc = engine_with_models({Weather::Daytime});
  StreamServerConfig cfg = parity_base_config();
  for (int i = 0; i < 3; ++i) {
    cfg.streams.push_back(make_stream("cam" + std::to_string(i), Weather::Daytime,
                                      1000 + 10 * static_cast<std::uint64_t>(i)));
  }
  cfg.batcher.max_batch = 64;
  cfg.decide_delay_ms = 20.0;

  StreamServer server(*sc, cfg);
  server.run();
  ASSERT_GT(server.batch_log().size(), 1u);
  double longest = 0.0;
  for (const BatchRecord& rec : server.batch_log()) {
    EXPECT_GE(rec.max_wait_ms, 0.0);
    longest = std::max(longest, rec.max_wait_ms);
  }
  EXPECT_GE(longest, 0.5 * cfg.decide_delay_ms)
      << "the queue wait behind a slow batch is missing from max_wait_ms";
}

TEST(StreamServer, BatchedMatchesSequentialMixedWeather) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain, Weather::Snow});
  StreamServerConfig cfg = parity_base_config();
  cfg.streams.push_back(make_stream("day0", Weather::Daytime, 3000));
  cfg.streams.push_back(make_stream("rain", Weather::Rain, 3010));
  cfg.streams.push_back(make_stream("day1", Weather::Daytime, 3020));
  cfg.streams.push_back(make_stream("snow", Weather::Snow, 3030));
  cfg.batcher.max_batch = 4;

  StreamServer batched(*sc, cfg);
  batched.run();
  StreamServer reference(*sc, cfg);
  reference.run_sequential();

  ASSERT_GT(batched.total_decisions(), 0u);
  expect_servers_agree(batched, reference);
  // The weather-grouping invariant holds in the realised batch log too:
  // every batch is weather-uniform by construction, so the log must show
  // batches from several weathers rather than one merged stream.
  bool saw_day = false, saw_other = false;
  for (const BatchRecord& rec : batched.batch_log()) {
    ASSERT_LE(rec.size, 4u);
    (rec.weather == Weather::Daytime ? saw_day : saw_other) = true;
  }
  EXPECT_TRUE(saw_day);
  EXPECT_TRUE(saw_other);
}

TEST(StreamServer, BatchedMatchesSequentialUnderDriftRecalibration) {
  // Each stream's camera drifts and self-heals on its own schedule; the
  // batched executor must replay every stream's calibration lineage (and
  // therefore every verdict, including the conservative miscalibration
  // warns) bit-identically to the sequential reference.
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  StreamServerConfig cfg = parity_base_config();
  StreamConfig s0 = make_stream("drift-day", Weather::Daytime, 1000);
  StreamConfig s1 = make_stream("drift-rain", Weather::Rain, 1010);
  for (StreamConfig* s : {&s0, &s1}) {
    s->faults.geometry.drift_px_per_frame = 0.03;  // 1.8 px per check
    s->faults.geometry.drift_stop_frame = 600;
    s->recalib.enabled = true;
    s->recalib.check_every_frames = 60;
  }
  cfg.streams = {s0, s1};
  cfg.batcher.max_batch = 2;

  StreamServer batched(*sc, cfg);
  batched.run();
  StreamServer reference(*sc, cfg);
  reference.run_sequential();

  ASSERT_GT(batched.total_decisions(), 0u);
  expect_servers_agree(batched, reference);
  for (std::size_t i = 0; i < batched.stream_count(); ++i) {
    SCOPED_TRACE("stream " + batched.stream(i).config().name);
    const runtime::RecalibrationLoop* b = batched.stream(i).recalibration();
    const runtime::RecalibrationLoop* r = reference.stream(i).recalibration();
    ASSERT_NE(b, nullptr);
    ASSERT_NE(r, nullptr);
    EXPECT_GT(b->recalibrations(), 0u) << "drift never triggered a recalibration";
    EXPECT_EQ(b->recalibrations(), r->recalibrations());
    EXPECT_EQ(b->miscalibration_episodes(), r->miscalibration_episodes());
    EXPECT_EQ(b->checks_run(), r->checks_run());
    EXPECT_EQ(b->estimates_rejected(), r->estimates_rejected());
    for (int m = 0; m < 9; ++m) {
      EXPECT_EQ(b->applied_view().matrix()[m], r->applied_view().matrix()[m])
          << "applied view diverged at element " << m;
    }
  }
}

TEST(StreamServer, ParityHoldsAcrossMidRunModelSwitch) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  StreamServerConfig cfg = parity_base_config();
  cfg.frames = 30 * 120;
  cfg.streams.push_back(make_stream("switching", Weather::Daytime, 535353));
  cfg.streams.push_back(make_stream("steady", Weather::Daytime, 4010));
  // A third of the way in, stream 0's scene turns to rain: its later
  // windows must be judged by the rain model in both modes, and the swap
  // latency must gate the same decisions conservative in both modes.
  const std::size_t switch_frame = cfg.frames / 3;
  cfg.streams[0].model_schedule.push_back({switch_frame, Weather::Rain, 120.0});
  cfg.batcher.max_batch = 2;

  StreamServer batched(*sc, cfg);
  batched.run();
  StreamServer reference(*sc, cfg);
  reference.run_sequential();

  expect_servers_agree(batched, reference);
  const auto& trace = batched.stream(0).trace();
  ASSERT_FALSE(trace.empty());
  // The switch really split the stream's verdicts across both models:
  // model-gated decisions exist on both sides of the switch point, and
  // the batch log shows weather-uniform batches from both weathers (the
  // grouping invariant means the engine ran rain windows separately).
  bool model_before = false, model_after = false;
  for (const DecisionRecord& rec : trace) {
    if (rec.source != runtime::DecisionSource::Model) continue;
    (rec.frame < switch_frame ? model_before : model_after) = true;
  }
  EXPECT_TRUE(model_before) << "no pre-switch model verdict — weak scenario";
  EXPECT_TRUE(model_after) << "no post-switch window reached the rain model";
  bool saw_rain_batch = false;
  for (const BatchRecord& rec : batched.batch_log()) {
    saw_rain_batch |= rec.weather == Weather::Rain;
  }
  EXPECT_TRUE(saw_rain_batch);
}

/// Run `cfg` batched and sequentially on `engine`; the two must agree.
/// Returns the sequential server.
std::unique_ptr<StreamServer> serve_both_ways(SafeCross& engine, const StreamServerConfig& cfg) {
  StreamServer batched(engine, cfg);
  batched.run();
  auto reference = std::make_unique<StreamServer>(engine, cfg);
  reference->run_sequential();
  expect_servers_agree(batched, *reference);
  return reference;
}

std::size_t model_decisions(const StreamServer& server) {
  return server.stream(0).scorecard().model_decisions();
}

bool any_prob_differs(const StreamServer& a, const StreamServer& b) {
  const auto& at = a.stream(0).trace();
  const auto& bt = b.stream(0).trace();
  for (std::size_t s = 0; s < at.size() && s < bt.size(); ++s) {
    if (at[s].prob_danger != bt[s].prob_danger) return true;
  }
  return false;
}

// The serving rule, arm by arm: a window is judged by its own weather's
// model when the engine has one, else by the daytime model, else by no
// model at all (FailSafeSwitchInFlight). Each arm holds batched = sequential.
TEST(StreamServer, ServingRuleOwnModelElseDaytimeElseFailSafe) {
  StreamServerConfig cfg = parity_base_config();
  cfg.frames = 30 * 20;  // this seed's first decisions land from frame ~360
  cfg.batcher.max_batch = 2;
  const auto one_stream = [&cfg](Weather weather) {
    StreamServerConfig c = cfg;
    c.streams = {make_stream("cam", weather, 87010)};
    return c;
  };

  {
    SCOPED_TRACE("(a) own model serves");
    const StreamServerConfig rain = one_stream(Weather::Rain);
    auto both = engine_with_models({Weather::Daytime, Weather::Rain});
    auto rain_only = engine_with_seeds({{Weather::Rain, model_seed(Weather::Rain)}});
    auto day_only = engine_with_models({Weather::Daytime});
    const auto got = serve_both_ways(*both, rain);
    const auto want = serve_both_ways(*rain_only, rain);
    ASSERT_GT(model_decisions(*got), 0u) << "no model-gated decision — weak scenario";
    expect_servers_agree(*got, *want);
    EXPECT_TRUE(any_prob_differs(*got, *serve_both_ways(*day_only, rain)))
        << "rain and daytime weights agree everywhere — weak scenario";
  }
  {
    SCOPED_TRACE("(b) daytime fallback serves");
    const StreamServerConfig fog = one_stream(Weather::Fog);
    auto day_only = engine_with_models({Weather::Daytime});
    auto fog_as_day = engine_with_seeds({{Weather::Fog, model_seed(Weather::Daytime)}});
    auto fog_own = engine_with_models({Weather::Fog});
    const auto got = serve_both_ways(*day_only, fog);
    const auto want = serve_both_ways(*fog_as_day, fog);
    ASSERT_GT(model_decisions(*got), 0u) << "no model-gated decision — weak scenario";
    expect_servers_agree(*got, *want);
    EXPECT_TRUE(any_prob_differs(*got, *serve_both_ways(*fog_own, fog)))
        << "fog and daytime weights agree everywhere — weak scenario";
  }
  {
    SCOPED_TRACE("(c) neither model: fail-safe");
    const StreamServerConfig snow = one_stream(Weather::Snow);
    auto rain_only = engine_with_models({Weather::Rain});
    auto day_only = engine_with_models({Weather::Daytime});
    const auto got = serve_both_ways(*rain_only, snow);
    const auto gated = serve_both_ways(*day_only, snow);
    ASSERT_GT(model_decisions(*gated), 0u) << "no model-gated decision — weak scenario";
    EXPECT_EQ(model_decisions(*got), 0u);
    const auto& gt = got->stream(0).trace();
    const auto& mt = gated->stream(0).trace();
    ASSERT_EQ(gt.size(), mt.size());
    for (std::size_t s = 0; s < gt.size(); ++s) {
      SCOPED_TRACE("seq " + std::to_string(s));
      EXPECT_EQ(gt[s].frame, mt[s].frame);
      if (mt[s].source == runtime::DecisionSource::Model) {
        EXPECT_EQ(gt[s].source, runtime::DecisionSource::FailSafeSwitchInFlight);
        EXPECT_TRUE(gt[s].warn);
        EXPECT_EQ(gt[s].predicted_class, 0);
      } else {
        EXPECT_EQ(gt[s].source, mt[s].source);
      }
    }
  }
}

// The server builds its ModelCache itself, with the R50 profile for
// exactly the weathers the engine holds. A weather without a model stays
// out of the cache, and its stream is still judged by the daytime model.
TEST(StreamServer, ModelCacheRegistersTheEngineWeathersOnly) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  StreamServerConfig cfg = parity_base_config();
  cfg.frames = 30 * 20;  // this seed's first decisions land from frame ~360
  cfg.batcher.max_batch = 2;
  cfg.switch_mode = SwitchMode::Pipelined;
  cfg.streams = {make_stream("cam", Weather::Snow, 87010)};

  StreamServer batched(*sc, cfg);
  batched.run();
  const switching::ModelCache* cache = batched.model_cache();
  ASSERT_NE(cache, nullptr);
  EXPECT_TRUE(cache->registered("daytime"));
  EXPECT_TRUE(cache->registered("rain"));
  EXPECT_FALSE(cache->registered("snow"));
  StreamServer reference(*sc, cfg);
  reference.run_sequential();
  expect_servers_agree(batched, reference);

  // Same verdicts as an engine whose snow model carries the daytime weights.
  ASSERT_GT(model_decisions(reference), 0u) << "no model-gated decision — weak scenario";
  auto snow_as_day = engine_with_seeds({{Weather::Snow, model_seed(Weather::Daytime)}});
  StreamServer want(*snow_as_day, cfg);
  want.run_sequential();
  expect_servers_agree(reference, want);
}

TEST(StreamServer, FailedSwitchGatesOnlyItsOwnStream) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  StreamServerConfig cfg = parity_base_config();
  cfg.frames = 30 * 120;
  cfg.streams.push_back(make_stream("failing", Weather::Daytime, 535353));
  cfg.streams.push_back(make_stream("clean", Weather::Daytime, 4010));
  // Stream 0's fault plan kills every swap; its scheduled switch to rain
  // a third of the way in therefore fails and latches it fail-safe.
  const std::size_t switch_frame = cfg.frames / 3;
  cfg.streams[0].faults.switch_failure_prob = 1.0;
  cfg.streams[0].model_schedule.push_back({switch_frame, Weather::Rain, 120.0});
  cfg.batcher.max_batch = 2;

  StreamServer batched(*sc, cfg);
  batched.run();
  StreamServer reference(*sc, cfg);
  reference.run_sequential();
  expect_servers_agree(batched, reference);

  const StreamContext& failing = batched.stream(0);
  ASSERT_NE(failing.injector(), nullptr);
  EXPECT_EQ(failing.injector()->switch_failures(), 1u);
  bool model_before = false, after = false;
  for (const DecisionRecord& rec : failing.trace()) {
    if (rec.frame < switch_frame) {
      model_before |= rec.source == runtime::DecisionSource::Model;
      continue;
    }
    after = true;
    EXPECT_EQ(rec.source, runtime::DecisionSource::FailSafeSwitchInFlight)
        << "frame " << rec.frame << " trusted a model whose swap failed";
  }
  EXPECT_TRUE(model_before) << "no pre-switch model verdict — weak scenario";
  EXPECT_TRUE(after) << "no decision after the failed switch — weak scenario";

  // The clean stream decides exactly as it would served alone.
  StreamServerConfig solo_cfg = parity_base_config();
  solo_cfg.frames = cfg.frames;
  solo_cfg.streams.push_back(cfg.streams[1]);
  StreamServer solo(*sc, solo_cfg);
  solo.run_sequential();
  const auto& got = batched.stream(1).trace();
  const auto& want = solo.stream(0).trace();
  ASSERT_FALSE(want.empty());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].frame, want[s].frame);
    EXPECT_EQ(got[s].prob_danger, want[s].prob_danger);
    EXPECT_EQ(got[s].source, want[s].source);
  }
}

TEST(StreamServer, SwitchFailureLatchesUntilALaterSwitchSucceeds) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  StreamServerConfig cfg = parity_base_config();
  cfg.frames = 30 * 240;
  StreamConfig stream = make_stream("flapping", Weather::Daytime, 7000);
  stream.faults.switch_failure_prob = 0.5;
  // Instant swaps, so a switch only ever gates decisions through the
  // failure latch, never through a swap in flight.
  for (std::size_t at = 600; at < cfg.frames; at += 600) {
    const Weather to = (at / 600) % 2 == 1 ? Weather::Rain : Weather::Daytime;
    stream.model_schedule.push_back({at, to, 0.0});
  }
  cfg.streams.push_back(stream);
  StreamServer server(*sc, cfg);
  server.run_sequential();

  // Replay the injector's draws in tick order (switch draws, then the
  // frame fate) to learn which switches failed and when the latch held.
  runtime::FaultInjector shadow(stream.faults, stream.fault_seed);
  std::vector<char> latched(cfg.frames + 1, 0);
  bool latch = false;
  std::size_t failures = 0, first_recovery = 0, next = 0;
  for (std::size_t f = 1; f <= cfg.frames; ++f) {
    if (next < stream.model_schedule.size() && stream.model_schedule[next].at_frame == f) {
      ++next;
      const bool failed = shadow.next_switch_fails();
      if (failed) ++failures;
      if (latch && !failed && first_recovery == 0) first_recovery = f;
      latch = failed;
    }
    shadow.next_frame_fault();
    latched[f] = latch ? 1 : 0;
  }
  ASSERT_GT(failures, 0u) << "weak scenario: no switch failed";
  ASSERT_GT(first_recovery, 0u) << "weak scenario: no switch recovered a latch";

  std::size_t gated = 0, trusted_after_recovery = 0;
  for (const DecisionRecord& rec : server.stream(0).trace()) {
    const bool in_latch = latched[rec.frame] != 0;
    EXPECT_EQ(rec.source == runtime::DecisionSource::FailSafeSwitchInFlight, in_latch)
        << "frame " << rec.frame;
    gated += in_latch ? 1 : 0;
    trusted_after_recovery +=
        rec.frame >= first_recovery && rec.source == runtime::DecisionSource::Model;
  }
  EXPECT_GT(gated, 0u);
  EXPECT_GT(trusted_after_recovery, 0u) << "the model was never trusted again";
}

TEST(StreamServer, ProducerCrashesWithinBudgetChangeNothing) {
  auto sc = engine_with_models({Weather::Daytime});
  StreamServerConfig cfg = parity_base_config();
  cfg.frames = 30 * 40;
  cfg.backoff = fast_backoff();
  cfg.streams.push_back(make_stream("crashy", Weather::Daytime, 6000));
  cfg.streams.push_back(make_stream("calm", Weather::Daytime, 6010));
  cfg.streams[0].crash_frames = {100, 500};
  cfg.batcher.max_batch = 2;

  StreamServer batched(*sc, cfg);
  batched.run();

  // The reference ignores crash schedules — which is the point: restarts
  // replay the crashed frame, so the verdict stream shows no trace of
  // either crash.
  StreamServer reference(*sc, cfg);
  reference.run_sequential();

  EXPECT_EQ(batched.crashes_injected(), 2u);
  EXPECT_EQ(batched.stage_restarts(), 2u);
  EXPECT_EQ(batched.streams_gave_up(), 0u);
  EXPECT_FALSE(batched.stream_down(0));
  expect_servers_agree(batched, reference);
}

TEST(StreamServer, DeadProducerIsIsolatedFromOtherStreams) {
  auto sc = engine_with_models({Weather::Daytime});
  StreamServerConfig cfg = parity_base_config();
  cfg.frames = 30 * 40;
  cfg.backoff = fast_backoff(/*max_restarts=*/2);
  cfg.streams.push_back(make_stream("doomed", Weather::Daytime, 7000));
  cfg.streams.push_back(make_stream("survivor0", Weather::Daytime, 7010));
  cfg.streams.push_back(make_stream("survivor1", Weather::Daytime, 7020));
  // Crashes on the first frame of each incarnation: budget exhausted
  // immediately, the stream never produces a single frame.
  cfg.streams[0].crash_frames = {1, 1, 1};
  cfg.batcher.max_batch = 3;

  StreamServer batched(*sc, cfg);
  batched.run();  // must not hang on the dead stream's queue

  EXPECT_TRUE(batched.stream_down(0));
  EXPECT_EQ(batched.streams_gave_up(), 1u);
  EXPECT_TRUE(batched.stream(0).health().fail_safe_latched());
  EXPECT_EQ(batched.stream(0).scorecard().decisions(), 0u);

  // The survivors ran to completion and match their own solo reference.
  StreamServerConfig solo = cfg;
  solo.streams.erase(solo.streams.begin());
  solo.streams[0].crash_frames.clear();
  StreamServer reference(*sc, solo);
  reference.run_sequential();
  for (std::size_t i = 1; i < batched.stream_count(); ++i) {
    SCOPED_TRACE(batched.stream(i).config().name);
    EXPECT_EQ(batched.stream(i).frames_run(), cfg.frames);
    const auto& got = batched.stream(i).trace();
    const auto& want = reference.stream(i - 1).trace();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t s = 0; s < got.size(); ++s) {
      EXPECT_EQ(got[s].predicted_class, want[s].predicted_class);
      EXPECT_EQ(got[s].prob_danger, want[s].prob_danger);
      EXPECT_EQ(got[s].source, want[s].source);
    }
  }
}

TEST(StreamServer, OverloadShedsWithExactAccounting) {
  auto sc = engine_with_models({Weather::Daytime});
  StreamServerConfig cfg;
  cfg.frames = 30 * 40;
  cfg.streams.push_back(make_stream("hot0", Weather::Daytime, 8000));
  cfg.streams.push_back(make_stream("hot1", Weather::Daytime, 8010));
  // A grinding engine (100 ms per batch), tiny queues and an aggressive
  // push timeout force the shedding path.
  cfg.decide_delay_ms = 100.0;
  cfg.queue_capacity = 2;
  cfg.push_timeout_ms = 1.0;
  cfg.shed_on_overload = true;
  cfg.batcher.max_batch = 2;

  // Whether overload actually materialises is a race against the OS
  // scheduler: on a loaded machine the producers themselves can be
  // starved below the consumer's rate and nothing sheds. Retry the
  // scenario a few times for the shed>0 precondition; the conservation
  // invariant is asserted on every attempt regardless.
  std::size_t shed_total = 0;
  std::size_t decisions_total = 0;
  for (int attempt = 0; attempt < 3 && shed_total == 0; ++attempt) {
    StreamServer server(*sc, cfg);
    server.run();
    shed_total = server.windows_shed_total();
    decisions_total = server.total_decisions();
    // Conservation: every produced window was either decided or shed —
    // none vanished, none was double-counted.
    for (std::size_t i = 0; i < server.stream_count(); ++i) {
      SCOPED_TRACE(server.stream(i).config().name);
      EXPECT_EQ(server.stream(i).windows_produced(),
                server.stream(i).scorecard().decisions() + server.windows_shed(i));
    }
  }
  EXPECT_GT(shed_total, 0u) << "overload must shed, not queue unboundedly";
  EXPECT_GT(decisions_total, 0u) << "shedding must not starve the service";
}

}  // namespace
}  // namespace safecross::serving
