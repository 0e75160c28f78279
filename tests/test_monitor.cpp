// One camera's live warning service, run the one way every stream runs:
// a StreamServer at K = 1 where only the verdict trace and scorecard
// matter, the StreamContext tick loop where per-frame state is checked.

#include <memory>

#include <gtest/gtest.h>

#include "core/offline.h"
#include "dataset/builder.h"
#include "models/slowfast.h"
#include "serving/stream_server.h"

namespace safecross::core {
namespace {

using serving::StreamConfig;
using serving::StreamServer;
using serving::StreamServerConfig;

SafeCross& trained_framework() {
  static SafeCross* sc = [] {
    dataset::BuildRequest req;
    req.target_segments = 60;
    req.max_sim_hours = 2.0;
    req.seed = 777;
    const auto day = dataset::build_dataset(req);
    SafeCrossConfig cfg;
    cfg.model.slow_channels = 4;
    cfg.model.fast_channels = 2;
    auto* framework = new SafeCross(cfg);
    std::vector<const dataset::VideoSegment*> train;
    for (const auto& s : day.segments) train.push_back(&s);
    train_basic(*framework, train, {.epochs = 3});
    return framework;
  }();
  return *sc;
}

StreamConfig daytime_stream(std::uint64_t sim_seed, std::uint64_t collector_seed) {
  StreamConfig sc;
  sc.weather = dataset::Weather::Daytime;
  sc.sim_seed = sim_seed;
  sc.collector_seed = collector_seed;
  return sc;
}

/// Serve one stream for `frames` frame slots (sequential reference, traces on).
std::unique_ptr<StreamServer> serve(SafeCross& sc, const StreamConfig& stream,
                                    std::size_t frames) {
  StreamServerConfig cfg;
  cfg.frames = frames;
  cfg.record_traces = true;
  cfg.streams.push_back(stream);
  auto server = std::make_unique<StreamServer>(sc, cfg);
  server->run_sequential();
  return server;
}

TEST(Monitor, NoDecisionsBeforeWindowFills) {
  // Fewer frames than one window.
  const auto server = serve(trained_framework(), daytime_stream(31, 32), 31);
  EXPECT_EQ(server->stream(0).scorecard().decisions(), 0u);
  EXPECT_TRUE(server->stream(0).trace().empty());
}

TEST(Monitor, CountersAreConsistent) {
  const auto server = serve(trained_framework(), daytime_stream(33, 34), 30 * 240);
  const StreamScorecard& s = server->stream(0).scorecard();
  EXPECT_EQ(s.decisions(), server->stream(0).trace().size());
  EXPECT_EQ(s.decisions(), s.correct() + s.missed_threats() + s.false_warnings());
  EXPECT_LE(s.warnings(), s.decisions());
}

TEST(Monitor, DecisionsOnlyWhileSubjectWaits) {
  serving::StreamContext ctx(daytime_stream(35, 36));
  std::size_t due = 0;
  for (int i = 0; i < 30 * 240; ++i) {
    if (!ctx.tick()) continue;
    ++due;
    const sim::Vehicle* subject = ctx.sim().subject(ctx.config().vp.approach);
    ASSERT_NE(subject, nullptr);
    EXPECT_EQ(subject->state, sim::DriverState::HoldingAtStop);
  }
  EXPECT_GT(due, 0u);
}

TEST(Monitor, DecisionStrideRateLimits) {
  StreamConfig stream = daytime_stream(37, 38);
  stream.decision_stride = 30;  // at most one decision per second
  const auto server = serve(trained_framework(), stream, 30 * 300);
  const auto& trace = server->stream(0).trace();
  ASSERT_FALSE(trace.empty());
  for (std::size_t s = 1; s < trace.size(); ++s) {
    EXPECT_GE(trace[s].frame - trace[s - 1].frame, 30u);
  }
}

TEST(Monitor, ServingJudgesTheStreamWithItsWeatherModel) {
  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  const auto engine = [&cfg](std::uint64_t day_seed, std::uint64_t rain_seed) {
    auto sc = std::make_unique<SafeCross>(cfg);
    models::SlowFastConfig mc = cfg.model;
    if (day_seed != 0) {
      mc.init_seed = day_seed;
      sc->set_model(dataset::Weather::Daytime, std::make_unique<models::SlowFast>(mc));
    }
    mc.init_seed = rain_seed;
    sc->set_model(dataset::Weather::Rain, std::make_unique<models::SlowFast>(mc));
    return sc;
  };
  const auto both = engine(/*day_seed=*/11, /*rain_seed=*/12);
  const auto rain_only = engine(/*day_seed=*/0, /*rain_seed=*/12);
  const auto rain_as_day = engine(/*day_seed=*/0, /*rain_seed=*/11);

  StreamConfig stream = daytime_stream(39, 40);
  stream.weather = dataset::Weather::Rain;
  const auto served = serve(*both, stream, 30 * 120);
  const auto own = serve(*rain_only, stream, 30 * 120);
  const auto other = serve(*rain_as_day, stream, 30 * 120);
  ASSERT_GT(served->stream(0).scorecard().model_decisions(), 0u);
  // With the daytime model present, the rain stream is still judged by
  // the rain weights: its trace is the rain-only engine's, bit for bit,
  // and differs from the one the daytime weights give.
  const auto& got = served->stream(0).trace();
  const auto& want = own->stream(0).trace();
  const auto& wrong = other->stream(0).trace();
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), wrong.size());
  bool differs = false;
  for (std::size_t s = 0; s < got.size(); ++s) {
    EXPECT_EQ(got[s].prob_danger, want[s].prob_danger) << "seq " << s;
    EXPECT_EQ(got[s].source, want[s].source) << "seq " << s;
    differs |= got[s].prob_danger != wrong[s].prob_danger;
  }
  EXPECT_TRUE(differs) << "the two weight sets agree everywhere — weak scenario";
}

}  // namespace
}  // namespace safecross::core
