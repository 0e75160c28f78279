#include "dataset/collector.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

#include "dataset/builder.h"

namespace safecross::dataset {
namespace {

TEST(Collector, CollectsSegmentsWithCorrectLength) {
  sim::TrafficSimulator sim(sim::weather_params(Weather::Daytime), 3);
  sim::CameraModel cam(sim.intersection().geometry());
  CollectorConfig cfg;
  SegmentCollector collector(sim, cam, cfg, 9);
  while (collector.segments().size() < 5 && sim.time() < 1200.0) collector.step();
  ASSERT_GE(collector.segments().size(), 5u);
  for (const VideoSegment& s : collector.segments()) {
    EXPECT_EQ(s.frames.size(), 32u);
    for (const auto& f : s.frames) {
      EXPECT_EQ(f.width(), cfg.grid_w);
      EXPECT_EQ(f.height(), cfg.grid_h);
    }
    EXPECT_EQ(s.weather, Weather::Daytime);
  }
}

TEST(Collector, ProducesBothClasses) {
  sim::TrafficSimulator sim(sim::weather_params(Weather::Daytime), 4);
  sim::CameraModel cam(sim.intersection().geometry());
  SegmentCollector collector(sim, cam, {}, 10);
  while (collector.segments().size() < 40 && sim.time() < 3600.0) collector.step();
  std::size_t danger = 0, safe = 0;
  for (const VideoSegment& s : collector.segments()) {
    (s.binary_label() == 0 ? danger : safe)++;
  }
  EXPECT_GT(danger, 0u);
  EXPECT_GT(safe, 0u);
}

TEST(Collector, FramesAreBinaryOccupancy) {
  sim::TrafficSimulator sim(sim::weather_params(Weather::Daytime), 5);
  sim::CameraModel cam(sim.intersection().geometry());
  SegmentCollector collector(sim, cam, {}, 11);
  while (collector.segments().size() < 2 && sim.time() < 1200.0) collector.step();
  ASSERT_GE(collector.segments().size(), 1u);
  for (const auto& f : collector.segments()[0].frames) {
    for (std::size_t i = 0; i < f.size(); ++i) {
      EXPECT_TRUE(f.data()[i] == 0.0f || f.data()[i] == 1.0f);
    }
  }
}

TEST(Collector, RainFramesNoisierThanDaytime) {
  auto noise_cells = [](Weather w) {
    sim::TrafficSimulator sim(sim::weather_params(w), 6);
    sim::CameraModel cam(sim.intersection().geometry());
    SegmentCollector collector(sim, cam, {}, 12);
    std::size_t cells = 0;
    for (int i = 0; i < 200; ++i) {
      collector.step();
      cells += collector.last_frame().count_above(0.5f);
    }
    return cells;
  };
  EXPECT_GT(noise_cells(Weather::Rain), noise_cells(Weather::Daytime));
}

TEST(Collector, FullVPPipelineProducesSegments) {
  sim::TrafficSimulator sim(sim::weather_params(Weather::Daytime), 7);
  sim::CameraModel cam(sim.intersection().geometry());
  CollectorConfig cfg;
  cfg.mode = PipelineMode::FullVP;
  SegmentCollector collector(sim, cam, cfg, 13);
  while (collector.segments().size() < 1 && sim.time() < 600.0) collector.step();
  ASSERT_GE(collector.segments().size(), 1u);
  EXPECT_EQ(collector.segments()[0].frames.size(), 32u);
}

TEST(Collector, TakeSegmentsDrains) {
  sim::TrafficSimulator sim(sim::weather_params(Weather::Daytime), 8);
  sim::CameraModel cam(sim.intersection().geometry());
  SegmentCollector collector(sim, cam, {}, 14);
  while (collector.segments().size() < 2 && sim.time() < 1200.0) collector.step();
  const auto taken = collector.take_segments();
  EXPECT_GE(taken.size(), 2u);
  EXPECT_TRUE(collector.segments().empty());
}

TEST(Collector, BlackoutAcrossWindowEdgeStaysContiguousButStale) {
  // A blackout delivers Corrupted frames: slots are filled (no temporal
  // gap), but their content is untrustworthy. Straddle the 32-frame
  // window edge with a corrupted burst and check the two properties the
  // fail-safe gates rely on: contiguity survives, freshness degrades.
  sim::TrafficSimulator sim(sim::weather_params(Weather::Daytime), 21);
  sim::CameraModel cam(sim.intersection().geometry());
  CollectorConfig cfg;
  SegmentCollector collector(sim, cam, cfg, 22);
  // Fill most of the first window, then black out across its edge:
  // 8 corrupted frames before slot 32 and 8 after.
  for (int i = 0; i < 24; ++i) collector.step();
  EXPECT_FALSE(collector.window_contiguous()) << "window not full yet";
  for (int i = 0; i < 16; ++i) collector.step(FrameStatus::Corrupted);
  EXPECT_EQ(collector.frames_corrupted(), 16u);
  EXPECT_TRUE(collector.window_contiguous())
      << "corrupted slots are filled slots: no temporal gap";
  // The window now holds 16 corrupted frames out of 32 — stale by any
  // reasonable freshness floor.
  EXPECT_EQ(collector.window().size(), 32u);
  EXPECT_EQ(collector.stale_in_window(), 16u);
  EXPECT_EQ(collector.fresh_in_window(), 16u);
  // Fresh frames roll the corruption out of the window one slot at a time.
  for (int i = 0; i < 16; ++i) collector.step();
  EXPECT_EQ(collector.stale_in_window(), 16u) << "burst still inside the window";
  for (int i = 0; i < 16; ++i) {
    collector.step();
    EXPECT_EQ(collector.stale_in_window(), static_cast<std::size_t>(15 - i));
  }
  EXPECT_EQ(collector.fresh_in_window(), 32u);
  EXPECT_TRUE(collector.window_contiguous());
}

TEST(Collector, DropInsideCorruptedBurstBreaksContiguity) {
  // Contrast case to the blackout test: a *dropped* slot inside the same
  // burst does open a gap, and contiguity only returns after a full
  // window of filled slots.
  sim::TrafficSimulator sim(sim::weather_params(Weather::Daytime), 23);
  sim::CameraModel cam(sim.intersection().geometry());
  SegmentCollector collector(sim, cam, {}, 24);
  for (int i = 0; i < 40; ++i) collector.step();
  ASSERT_TRUE(collector.window_contiguous());
  collector.step(FrameStatus::Corrupted);
  EXPECT_TRUE(collector.window_contiguous());
  collector.step(FrameStatus::Dropped);
  EXPECT_FALSE(collector.window_contiguous());
  for (int i = 0; i < 31; ++i) {
    collector.step();
    EXPECT_FALSE(collector.window_contiguous()) << "gap still inside the window";
  }
  collector.step();  // 32nd filled slot since the gap
  EXPECT_TRUE(collector.window_contiguous());
}

// A collector state laid out as save_state writes it, with the window,
// its flag deques, the window frames' size and the background chosen by
// the test; the rest is a fresh collector's.
std::string collector_state(std::size_t frames, std::size_t blind, std::size_t fresh,
                            int frame_w = 36, int frame_h = 24,
                            const vision::Image& background = {}) {
  common::StateWriter w;
  Rng(1).save_state(w);
  background.save_state(w);  // RunningAverageBackground: background + age
  w.i32(background.empty() ? 0 : 20);
  w.u64(frames);
  for (std::size_t i = 0; i < frames; ++i) vision::Image(frame_w, frame_h).save_state(w);
  w.u64(blind);
  for (std::size_t i = 0; i < blind; ++i) w.boolean(false);
  w.u64(fresh);
  for (std::size_t i = 0; i < fresh; ++i) w.boolean(true);
  for (int i = 0; i < 5; ++i) w.u64(0);  // frame and fault counters
  w.i32(0);
  w.u64(0);
  for (const double v : {1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0}) w.f64(v);  // identity remap
  return w.take();
}

void restore(SegmentCollector& collector, const std::string& bytes) {
  common::StateReader r(bytes);
  collector.load_state(r);
}

// 40 window frames with no flags restored cleanly once, and the next
// step() popped an empty deque.
TEST(Collector, RestoreRefusesWindowWithoutItsFlags) {
  sim::TrafficSimulator sim(sim::weather_params(Weather::Daytime), 25);
  sim::CameraModel cam(sim.intersection().geometry());
  SegmentCollector collector(sim, cam, {}, 26);
  EXPECT_THROW(restore(collector, collector_state(40, 0, 0)), common::StateError);
  EXPECT_THROW(restore(collector, collector_state(8, 0, 0)), common::StateError);
  EXPECT_THROW(restore(collector, collector_state(8, 8, 7)), common::StateError);
  EXPECT_THROW(restore(collector, collector_state(33, 33, 33)), common::StateError);
  EXPECT_THROW(restore(collector, collector_state(8, 8, 8, 35, 24)), common::StateError);
  EXPECT_THROW(restore(collector, collector_state(8, 8, 8, 36, 23)), common::StateError);

  restore(collector, collector_state(32, 32, 32));
  for (int i = 0; i < 40; ++i) collector.step();
  EXPECT_EQ(collector.window().size(), 32u);
}

// A CRC-valid state whose remap held NaN restored cleanly, and the next
// FullVP step() sampled the mask at NaN coordinates and crashed.
TEST(Collector, RestoreRefusesNonFiniteRemap) {
  sim::TrafficSimulator sim(sim::weather_params(Weather::Daytime), 29);
  sim::CameraModel cam(sim.intersection().geometry());
  CollectorConfig cfg;
  cfg.mode = PipelineMode::FullVP;
  SegmentCollector collector(sim, cam, cfg, 30);
  for (int i = 0; i < 12; ++i) collector.step();
  common::StateWriter w;
  collector.save_state(w);
  const std::string good = w.take();
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    std::string bytes = good;
    std::memcpy(&bytes[bytes.size() - sizeof bad], &bad, sizeof bad);  // the remap's h33
    EXPECT_THROW(restore(collector, bytes), common::StateError);
  }
  restore(collector, good);
  collector.step();
  EXPECT_EQ(collector.frames_processed(), 13u);
}

TEST(Collector, RestoreRefusesBackgroundOfAnotherSize) {
  sim::TrafficSimulator sim(sim::weather_params(Weather::Daytime), 27);
  sim::CameraModel cam(sim.intersection().geometry());
  CollectorConfig cfg;
  cfg.mode = PipelineMode::FullVP;
  SegmentCollector collector(sim, cam, cfg, 28);
  EXPECT_THROW(restore(collector, collector_state(0, 0, 0, 36, 24, vision::Image(8, 8, 0.3f))),
               common::StateError);
  const sim::CameraConfig& cc = cam.config();
  restore(collector, collector_state(0, 0, 0, 36, 24, vision::Image(cc.width, cc.height, 0.3f)));
  collector.step();
  EXPECT_EQ(collector.window().size(), 1u);
}

TEST(Builder, ReachesTargetOrTimeCap) {
  BuildRequest req;
  req.weather = Weather::Daytime;
  req.target_segments = 10;
  req.max_sim_hours = 0.5;
  req.seed = 15;
  const BuiltDataset ds = build_dataset(req);
  EXPECT_GE(ds.segments.size(), 10u);
  EXPECT_GT(ds.frames, 0u);
}

TEST(Builder, PaperTableOneConstants) {
  EXPECT_EQ(paper_segment_count(Weather::Daytime), 1966u);
  EXPECT_EQ(paper_segment_count(Weather::Rain), 34u);
  EXPECT_EQ(paper_segment_count(Weather::Snow), 855u);
  EXPECT_DOUBLE_EQ(paper_time_span_hours(Weather::Daytime), 6.0);
  EXPECT_DOUBLE_EQ(paper_time_span_hours(Weather::Rain), 1.0);
  EXPECT_DOUBLE_EQ(paper_time_span_hours(Weather::Snow), 3.0);
}

TEST(Builder, TurnSegmentsEndAtKeyframe) {
  // A turned segment's last frames should show the subject moving through
  // the junction box; we check the weaker invariant that turn segments
  // exist and carry the turned flag.
  BuildRequest req;
  req.target_segments = 30;
  req.max_sim_hours = 1.0;
  req.seed = 16;
  const BuiltDataset ds = build_dataset(req);
  bool any_turned = false;
  for (const auto& s : ds.segments) any_turned |= s.turned;
  EXPECT_TRUE(any_turned);
}

}  // namespace
}  // namespace safecross::dataset
