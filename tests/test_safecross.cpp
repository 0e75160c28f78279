#include "core/safecross.h"

#include <gtest/gtest.h>

#include "core/offline.h"
#include "core/throughput.h"
#include "dataset/builder.h"

namespace safecross::core {
namespace {

SafeCrossConfig tiny_config() {
  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  return cfg;
}

const std::vector<dataset::VideoSegment>& day_segments() {
  static const auto segs = [] {
    dataset::BuildRequest req;
    req.target_segments = 60;
    req.max_sim_hours = 2.0;
    req.seed = 111;
    return dataset::build_dataset(req).segments;
  }();
  return segs;
}

const std::vector<dataset::VideoSegment>& rain_segments() {
  static const auto segs = [] {
    dataset::BuildRequest req;
    req.weather = Weather::Rain;
    req.target_segments = 20;
    req.max_sim_hours = 2.0;
    req.seed = 112;
    return dataset::build_dataset(req).segments;
  }();
  return segs;
}

std::vector<const dataset::VideoSegment*> ptrs(const std::vector<dataset::VideoSegment>& v) {
  std::vector<const dataset::VideoSegment*> out;
  for (const auto& s : v) out.push_back(&s);
  return out;
}

// One trained framework shared across tests (training dominates runtime).
SafeCross& trained() {
  static SafeCross* instance = [] {
    auto* sc = new SafeCross(tiny_config());
    train_basic(*sc, ptrs(day_segments()), {.epochs = 3});
    adapt_weather(*sc, Weather::Rain, ptrs(rain_segments()), fewshot_schedule(3));
    return sc;
  }();
  return *instance;
}

TEST(SafeCross, RequiresBasicModelBeforeAdaptation) {
  SafeCross sc(tiny_config());
  EXPECT_THROW(adapt_weather(sc, Weather::Rain, ptrs(rain_segments())), std::logic_error);
}

TEST(SafeCross, TrainBasicRegistersDaytimeModel) {
  EXPECT_TRUE(trained().has_model(Weather::Daytime));
  EXPECT_TRUE(trained().has_model(Weather::Rain));
  EXPECT_FALSE(trained().has_model(Weather::Snow));
}

TEST(SafeCross, ClassifyProducesCalibratedDecision) {
  const auto d = trained().classify_as(Weather::Daytime, day_segments()[0].frames);
  EXPECT_GE(d.prob_danger, 0.0f);
  EXPECT_LE(d.prob_danger, 1.0f);
  EXPECT_TRUE(d.predicted_class == 0 || d.predicted_class == 1);
  EXPECT_EQ(d.warn, d.prob_danger >= 0.5f);
}

TEST(SafeCross, SceneChangePaysSwitchDelayOnce) {
  switching::ModelSwitcher switcher = paper_switcher(trained());
  switcher.switch_to("daytime");
  const double to_rain = switcher.switch_to("rain");
  EXPECT_GT(to_rain, 0.0);
  EXPECT_LT(to_rain, 10.0);  // PipeSwitch policy by default
  EXPECT_DOUBLE_EQ(switcher.switch_to("rain"), 0.0);
  EXPECT_EQ(switcher.active_scene(), "rain");
}

TEST(SafeCross, SceneChangeToMissingModelThrows) {
  switching::ModelSwitcher switcher = paper_switcher(trained());
  EXPECT_THROW(switcher.switch_to("snow"), std::invalid_argument);
}

TEST(SafeCross, BasicModelBeatsChanceOnTraining) {
  std::size_t correct = 0;
  const auto& segs = day_segments();
  for (const auto& s : segs) {
    const auto d = trained().classify_as(Weather::Daytime, s.frames);
    if (d.predicted_class == s.binary_label()) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / segs.size(), 0.6);
}

TEST(Throughput, ReportAccountingAddsUp) {
  std::vector<const dataset::VideoSegment*> blind;
  for (const auto& s : day_segments()) {
    if (s.blind_area) blind.push_back(&s);
  }
  if (blind.empty()) GTEST_SKIP() << "no blind segments in tiny pool";
  const ThroughputReport r = throughput_experiment(trained(), blind);
  EXPECT_EQ(r.blind_segments, blind.size());
  EXPECT_EQ(r.class0 + r.class1, r.blind_segments);
  EXPECT_LE(r.judged_safe, r.blind_segments);
  EXPECT_LE(r.accuracy(), 1.0);
  EXPECT_GE(r.throughput_gain(), 0.0);
}

TEST(Throughput, SelectBlindTestSetHonorsCaps) {
  std::vector<dataset::VideoSegment> pool;
  for (int i = 0; i < 20; ++i) {
    dataset::VideoSegment s;
    s.blind_area = i % 2 == 0;
    s.turned = i % 4 < 2;
    pool.push_back(s);
  }
  const auto sel = select_blind_test_set(ptrs(pool), 3, 2);
  std::size_t c0 = 0, c1 = 0;
  for (const auto* s : sel) {
    EXPECT_TRUE(s->blind_area);
    (s->binary_label() == 0 ? c0 : c1)++;
  }
  EXPECT_LE(c0, 3u);
  EXPECT_LE(c1, 2u);
}

}  // namespace
}  // namespace safecross::core
