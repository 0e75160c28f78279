// A served stream under injected faults: the fail-safe policy must never
// feed a gapped window to the classifier as if it were contiguous, must
// tally fail-safe decisions separately in the online scorecard, and —
// with the injector disabled — must be bit-identical to the fail-silent
// (pre-robustness) behaviour.
//
// The framework under test uses untrained (but deterministically
// initialized) models: the robustness machinery is about *when* the model
// is consulted, not about what it has learned.

#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "models/slowfast.h"
#include "serving/stream_server.h"

namespace safecross::core {
namespace {

using serving::ReadyWindow;
using serving::StreamConfig;
using serving::StreamContext;
using serving::StreamServer;
using serving::StreamServerConfig;

SafeCrossConfig tiny_config() {
  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  return cfg;
}

std::unique_ptr<SafeCross> framework_with_daytime_model() {
  auto sc = std::make_unique<SafeCross>(tiny_config());
  sc->set_model(dataset::Weather::Daytime,
                std::make_unique<models::SlowFast>(tiny_config().model));
  return sc;
}

StreamConfig daytime_stream(std::uint64_t sim_seed, std::uint64_t collector_seed) {
  StreamConfig stream;
  stream.weather = dataset::Weather::Daytime;
  stream.sim_seed = sim_seed;
  stream.collector_seed = collector_seed;
  return stream;
}

/// Serve one stream for `frames` frame slots (sequential reference, traces on).
std::unique_ptr<StreamServer> serve(SafeCross& sc, const StreamConfig& stream, int frames) {
  StreamServerConfig cfg;
  cfg.frames = static_cast<std::size_t>(frames);
  cfg.record_traces = true;
  cfg.streams.push_back(stream);
  auto server = std::make_unique<StreamServer>(sc, cfg);
  server->run_sequential();
  return server;
}

/// Decide one due window the way the sequential server does, and score it.
SafeCross::Decision decide(SafeCross& sc, StreamContext& ctx, const ReadyWindow& w) {
  const SafeCross::Decision d = w.gate == runtime::DecisionSource::Model
                                    ? sc.classify_as(w.model_weather, w.window)
                                    : SafeCross::fail_safe_decision(w.gate);
  ctx.apply(w, d.predicted_class, d.prob_danger, d.warn, d.source);
  return d;
}

using DecisionTrace = std::vector<std::tuple<std::size_t, int, float, bool>>;

DecisionTrace trace_of(const StreamServer& server) {
  DecisionTrace trace;
  for (const serving::DecisionRecord& d : server.stream(0).trace()) {
    trace.emplace_back(d.frame, d.predicted_class, d.prob_danger, d.warn);
  }
  return trace;
}

TEST(RuntimeMonitor, FailSafePolicyIsBitIdenticalWithoutFaults) {
  auto sc = framework_with_daytime_model();
  const StreamConfig stream = daytime_stream(71, 72);
  const auto with_policy = trace_of(*serve(*sc, stream, 30 * 240));

  // Fail-silent: classify the raw window whenever a decision is due and
  // the window is full, ignoring every health gate.
  StreamContext ctx(stream);
  DecisionTrace without_policy;
  for (int i = 0; i < 30 * 240; ++i) {
    const std::optional<ReadyWindow> w = ctx.tick();
    if (!w || ctx.collector().window().size() <
                  static_cast<std::size_t>(stream.vp.frames_per_segment)) {
      continue;
    }
    const std::vector<vision::Image> window(ctx.collector().window().begin(),
                                            ctx.collector().window().end());
    const SafeCross::Decision d = sc->classify_as(w->model_weather, window);
    without_policy.emplace_back(w->frame, d.predicted_class, d.prob_danger, d.warn);
  }
  ASSERT_FALSE(with_policy.empty()) << "the run produced no decisions to compare";
  EXPECT_EQ(with_policy, without_policy);
}

TEST(RuntimeMonitor, GappedWindowNeverReachesModel) {
  auto sc = framework_with_daytime_model();
  StreamConfig stream = daytime_stream(73, 75);
  stream.faults.drop_prob = 0.30;  // heavy frame loss: most windows carry a gap
  stream.fault_seed = 74;
  StreamContext ctx(stream);
  std::size_t model_decisions = 0, fail_safe = 0;
  for (int i = 0; i < 30 * 120; ++i) {
    const std::optional<ReadyWindow> w = ctx.tick();
    if (!w) continue;
    const SafeCross::Decision d = decide(*sc, ctx, *w);
    if (d.source == runtime::DecisionSource::Model) {
      ++model_decisions;
      // The invariant under test: a model verdict implies the window the
      // classifier saw was full, gap-free and sufficiently fresh.
      EXPECT_TRUE(ctx.collector().window_contiguous());
      EXPECT_GE(ctx.collector().window().size(), 32u);
    } else {
      ++fail_safe;
      EXPECT_TRUE(d.warn) << "fail-safe decisions always warn";
      EXPECT_EQ(d.predicted_class, 0);
    }
  }
  ASSERT_NE(ctx.injector(), nullptr);
  EXPECT_GT(ctx.injector()->frames_dropped(), 0u);
  EXPECT_GT(fail_safe, 0u) << "30% drops must force some fail-safe decisions";
  EXPECT_EQ(ctx.scorecard().fail_safe_decisions(), fail_safe);
  EXPECT_EQ(ctx.scorecard().model_decisions(), model_decisions);
}

TEST(RuntimeMonitor, ScorecardSeparatesFailSafeFromModelDecisions) {
  auto sc = framework_with_daytime_model();
  StreamConfig stream = daytime_stream(76, 78);
  stream.faults.drop_prob = 0.10;
  stream.faults.freeze_prob = 0.10;
  stream.faults.noise_prob = 0.05;
  stream.faults.blackout_prob = 0.002;
  stream.fault_seed = 77;
  const auto server = serve(*sc, stream, 30 * 180);
  const StreamScorecard& s = server->stream(0).scorecard();

  EXPECT_EQ(s.decisions(), s.model_decisions() + s.fail_safe_decisions());
  EXPECT_EQ(s.decisions(), s.correct() + s.missed_threats() + s.false_warnings());
  EXPECT_LE(s.decisions(), s.decision_opportunities());
  // Per-source counts add up to the totals.
  std::size_t by_source_sum = 0;
  for (int src = 0; src < runtime::kDecisionSourceCount; ++src) {
    by_source_sum += s.fail_safe_by_source(static_cast<runtime::DecisionSource>(src));
  }
  EXPECT_EQ(by_source_sum, s.decisions());
  EXPECT_EQ(s.fail_safe_by_source(runtime::DecisionSource::Model), s.model_decisions());
}

TEST(RuntimeMonitor, SwitchFailureRunsFailSafeWithoutThrowing) {
  auto sc = framework_with_daytime_model();
  StreamConfig stream = daytime_stream(79, 81);
  stream.faults.switch_failure_prob = 1.0;  // every swap attempt dies
  stream.fault_seed = 80;
  // A real switch before the first decision: the swap dies and every
  // decision after it must run fail-safe.
  stream.model_schedule.push_back({1, dataset::Weather::Rain, 100.0});
  const auto server = serve(*sc, stream, 30 * 240);  // must not throw
  const StreamContext& ctx = server->stream(0);
  EXPECT_EQ(ctx.health().state(), runtime::HealthState::FailSafe);
  ASSERT_FALSE(ctx.trace().empty());
  for (const serving::DecisionRecord& d : ctx.trace()) {
    EXPECT_EQ(d.source, runtime::DecisionSource::FailSafeSwitchInFlight);
    EXPECT_TRUE(d.warn);
  }
  EXPECT_EQ(ctx.scorecard().model_decisions(), 0u);
  ASSERT_NE(ctx.injector(), nullptr);
  EXPECT_EQ(ctx.injector()->switch_failures(), 1u);
}

TEST(RuntimeMonitor, BlackoutForcesConservativeDecisions) {
  auto sc = framework_with_daytime_model();
  StreamConfig stream = daytime_stream(82, 84);
  stream.faults.blackout_prob = 0.01;
  stream.faults.blackout_frames = 60;  // two-second camera blindness
  stream.fault_seed = 83;
  StreamContext ctx(stream);
  ASSERT_NE(ctx.injector(), nullptr);
  for (int i = 0; i < 30 * 120; ++i) {
    const std::optional<ReadyWindow> w = ctx.tick();
    if (!w) continue;
    const SafeCross::Decision d = decide(*sc, ctx, *w);
    if (ctx.injector()->current_frame_fault() == runtime::FrameFault::Blackout) {
      // Deciding *during* a blackout must never trust the model: the
      // window is mostly zeros regardless of what is on the road.
      EXPECT_TRUE(runtime::is_fail_safe(d.source))
          << "frame " << i << " decided from a blacked-out window";
    }
  }
  EXPECT_GT(ctx.injector()->blackout_frames_total(), 0u);
}

TEST(RuntimeMonitor, CameraDriftSelfHealsThroughRecalibration) {
  auto sc = framework_with_daytime_model();
  StreamConfig stream = daytime_stream(88, 90);
  stream.faults.geometry.drift_px_per_frame = 0.04;  // ~1.2 px per 30-frame check
  stream.faults.geometry.drift_stop_frame = 600;     // then the camera holds still
  stream.fault_seed = 89;
  stream.recalib.enabled = true;
  const auto server = serve(*sc, stream, 30 * 240);
  const StreamContext& ctx = server->stream(0);
  std::size_t miscal_warns = 0, model_after_recovery = 0;
  for (const serving::DecisionRecord& d : ctx.trace()) {
    if (d.source == runtime::DecisionSource::FailSafeMiscalibrated) {
      ++miscal_warns;
      EXPECT_TRUE(d.warn) << "miscalibrated decisions must warn";
      EXPECT_EQ(d.predicted_class, 0);
    } else if (d.frame > 1501 && d.source == runtime::DecisionSource::Model) {
      ++model_after_recovery;
    }
  }
  const runtime::RecalibrationLoop* loop = ctx.recalibration();
  ASSERT_NE(loop, nullptr);
  EXPECT_GT(loop->miscalibration_episodes(), 0u) << "drift never latched";
  EXPECT_GT(loop->recalibrations(), 0u) << "no solve ever landed";
  EXPECT_GT(miscal_warns, 0u) << "latch never gated a decision";
  EXPECT_GT(model_after_recovery, 0u) << "model never trusted again post-drift";
  EXPECT_EQ(loop->state(), runtime::CalibrationState::Calibrated);
  // The healed calibration tracks the injected perturbation to within the
  // drift threshold — the loop measured, chased and caught the camera.
  ASSERT_NE(ctx.injector(), nullptr);
  const runtime::RecalibrationConfig& recalib = ctx.config().recalib;
  EXPECT_LT(runtime::view_drift_px(loop->applied_view(), ctx.injector()->view_perturbation(),
                                   recalib.frame_width, recalib.frame_height),
            recalib.drift_threshold_px);
}

TEST(RuntimeMonitor, RecalibrationIdleWithoutDriftIsBitIdentical) {
  // With the loop enabled but the camera steady, drift checks run and must
  // all come back below threshold: no latch, no swap, and the decision
  // stream is bit-identical to a stream without the loop.
  auto sc = framework_with_daytime_model();
  StreamConfig stream = daytime_stream(91, 92);
  const auto baseline = trace_of(*serve(*sc, stream, 30 * 120));

  stream.recalib.enabled = true;
  const auto server = serve(*sc, stream, 30 * 120);
  const runtime::RecalibrationLoop* loop = server->stream(0).recalibration();
  ASSERT_NE(loop, nullptr);
  EXPECT_GT(loop->checks_run(), 0u);
  EXPECT_EQ(loop->miscalibration_episodes(), 0u);
  EXPECT_EQ(loop->recalibrations(), 0u);
  EXPECT_EQ(trace_of(*server), baseline);
}

}  // namespace
}  // namespace safecross::core
