// End-to-end integration: simulate -> VP -> train -> adapt -> switch ->
// monitor live warnings — the full paper pipeline at miniature scale.

#include <gtest/gtest.h>

#include "core/offline.h"
#include "dataset/builder.h"
#include "serving/stream_server.h"

namespace safecross {
namespace {

using core::SafeCross;
using core::SafeCrossConfig;
using dataset::VideoSegment;
using dataset::Weather;

std::vector<const VideoSegment*> ptrs(const std::vector<VideoSegment>& v) {
  std::vector<const VideoSegment*> out;
  for (const auto& s : v) out.push_back(&s);
  return out;
}

TEST(Integration, FullPipelineProducesUsefulLiveWarnings) {
  // 1) Build a daytime dataset.
  dataset::BuildRequest req;
  req.target_segments = 100;
  req.max_sim_hours = 2.0;
  req.seed = 2024;
  const auto day = dataset::build_dataset(req);
  ASSERT_GE(day.segments.size(), 60u);

  // 2) Train the basic model.
  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  SafeCross sc(cfg);
  core::train_basic(sc, ptrs(day.segments), {.epochs = 4});

  // 3) Serve a live (fresh-seed) simulation and score decisions.
  serving::StreamServerConfig serve_cfg;
  serve_cfg.frames = 30 * 60 * 10;  // ten sim-minutes
  serving::StreamConfig live;
  live.weather = Weather::Daytime;
  live.sim_seed = 555;
  live.collector_seed = 556;
  serve_cfg.streams.push_back(live);
  serving::StreamServer server(sc, serve_cfg);
  server.run_sequential();

  const core::StreamScorecard& scorecard = server.stream(0).scorecard();
  ASSERT_GE(scorecard.decisions(), 20u) << "the live stream produced too few decisions";
  EXPECT_GT(scorecard.accuracy(), 0.6) << "live accuracy should beat chance";
}

TEST(Integration, WeatherAdaptationAndSwitchingRoundTrip) {
  dataset::BuildRequest day_req;
  day_req.target_segments = 60;
  day_req.max_sim_hours = 2.0;
  day_req.seed = 31;
  const auto day = dataset::build_dataset(day_req);

  dataset::BuildRequest snow_req = day_req;
  snow_req.weather = Weather::Snow;
  snow_req.target_segments = 40;
  snow_req.seed = 32;
  const auto snow = dataset::build_dataset(snow_req);

  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  SafeCross sc(cfg);
  core::train_basic(sc, ptrs(day.segments), {.epochs = 3});
  core::adapt_weather(sc, Weather::Snow, ptrs(snow.segments), core::fewshot_schedule(6));

  // Scene change day -> snow -> day; every PipeSwitch delay < 10 ms.
  switching::ModelSwitcher switcher = core::paper_switcher(sc);
  const double d1 = switcher.switch_to("daytime");
  const double d2 = switcher.switch_to("snow");
  const double d3 = switcher.switch_to("daytime");
  EXPECT_LT(d1, 10.0);
  EXPECT_LT(d2, 10.0);
  EXPECT_LT(d3, 10.0);
  EXPECT_EQ(switcher.switch_count(), 3u);

  // The snow model still classifies snow segments sensibly.
  std::size_t correct = 0;
  for (const auto& s : snow.segments) {
    if (sc.classify_as(Weather::Snow, s.frames).predicted_class == s.binary_label()) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / snow.segments.size(), 0.55);
}

TEST(Integration, FullVPMatchesFastPathLabelsOnSameSim) {
  // Run the two VP paths over identical traffic and check they cut the
  // same number of segments with the same labels (frames differ — the
  // full path is noisier — but the cutting logic is label-driven).
  dataset::CollectorConfig fast_cfg;
  dataset::CollectorConfig full_cfg;
  full_cfg.mode = dataset::PipelineMode::FullVP;

  sim::TrafficSimulator sim_a(sim::weather_params(Weather::Daytime), 777);
  sim::TrafficSimulator sim_b(sim::weather_params(Weather::Daytime), 777);
  const sim::CameraModel cam_a(sim_a.intersection().geometry());
  const sim::CameraModel cam_b(sim_b.intersection().geometry());
  dataset::SegmentCollector fast(sim_a, cam_a, fast_cfg, 1);
  dataset::SegmentCollector full(sim_b, cam_b, full_cfg, 1);

  for (int i = 0; i < 30 * 240; ++i) {  // 4 sim-minutes
    fast.step();
    full.step();
  }
  ASSERT_EQ(fast.segments().size(), full.segments().size());
  for (std::size_t i = 0; i < fast.segments().size(); ++i) {
    EXPECT_EQ(fast.segments()[i].binary_label(), full.segments()[i].binary_label());
    EXPECT_EQ(fast.segments()[i].blind_area, full.segments()[i].blind_area);
  }
}

}  // namespace
}  // namespace safecross
