// FullVP parity and pin. SegmentCollector's FullVP frames are checked
// against a test-side float chain built from independent pieces: render
// -> float running-average update -> absdiff -> threshold -> the
// reference opening scan -> float warp -> threshold. The scenarios cover
// every weather, a drifting view perturbation, a remap swapped in
// through set_image_to_grid and a save_state/load_state restore in the
// middle of the run.
//
// The pin CRCs the same top-down frames. Its value was recorded while
// the collector still ran the per-pixel float opening, so the packed
// mask path is held to the float path's exact output.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/checksum.h"
#include "dataset/collector.h"
#include "morphology_reference.h"

namespace safecross::dataset {
namespace {

using vision::Homography;
using vision::Image;

constexpr int kWarmSteps = 600;  // traffic builds up before the collector starts
constexpr int kFrames = 64;

struct Scenario {
  const char* name;
  Weather weather;
  std::uint64_t sim_seed;
  bool perturb_view = false;  // a camera perturbation that drifts every frame
  int swap_remap_at = -1;     // frame at which a shifted image->grid remap is swapped in
  int restore_at = -1;        // frame at which the collector is saved and restored
};

const std::vector<Scenario>& scenarios() {
  // Seeds picked so every scenario's grids carry vehicles (fog and rain
  // traffic is light, and fog hides most of it).
  static const std::vector<Scenario> all = {
      {"Daytime", Weather::Daytime, 28},
      {"Rain", Weather::Rain, 19},
      {"Snow", Weather::Snow, 13},
      {"Night", Weather::Night, 7},
      {"Fog", Weather::Fog, 27},
      {"SnowPerturbedView", Weather::Snow, 13, true},
      {"RainSwappedRemap", Weather::Rain, 14, false, 20},
      {"DaytimeRestoredMidRun", Weather::Daytime, 19, false, -1, 24},
      {"SnowPerturbedSwappedRestored", Weather::Snow, 19, true, 16, 30},
  };
  return all;
}

// Ideal -> perturbed pixel mapping at frame f: a slow rotation plus drift.
Homography view_at(int f) {
  const double a = 0.0005 * f;
  return Homography({std::cos(a), -std::sin(a), 0.05 * f, std::sin(a), std::cos(a),
                     -0.04 * f, 0.0, 0.0, 1.0});
}

// The remap a recalibration would swap in: the camera's ideal one behind
// a 2 px image shift.
Homography swapped_remap(const sim::CameraModel& cam, const CollectorConfig& cfg) {
  return cam.image_to_grid(cfg.grid_w, cfg.grid_h) *
         Homography({1.0, 0.0, 2.0, 0.0, 1.0, -1.5, 0.0, 0.0, 1.0});
}

std::unique_ptr<sim::TrafficSimulator> warm_sim(const Scenario& s) {
  auto sim = std::make_unique<sim::TrafficSimulator>(sim::weather_params(s.weather), s.sim_seed);
  for (int i = 0; i < kWarmSteps; ++i) sim->step();
  return sim;
}

CollectorConfig full_vp() {
  CollectorConfig cfg;
  cfg.mode = PipelineMode::FullVP;
  return cfg;
}

std::vector<Image> run_collector(const Scenario& s) {
  const CollectorConfig cfg = full_vp();
  auto sim = warm_sim(s);
  const sim::CameraModel cam(sim->intersection().geometry());
  auto collector = std::make_unique<SegmentCollector>(*sim, cam, cfg, s.sim_seed + 100);
  Homography view;
  if (s.perturb_view) collector->set_view_perturbation(&view);
  std::vector<Image> frames;
  for (int f = 0; f < kFrames; ++f) {
    if (f == s.restore_at) {
      common::StateWriter w;
      sim->save_state(w);
      collector->save_state(w);
      auto restored_sim =
          std::make_unique<sim::TrafficSimulator>(sim::weather_params(s.weather), s.sim_seed);
      auto restored = std::make_unique<SegmentCollector>(*restored_sim, cam, cfg, 0);
      common::StateReader r(w.bytes());
      restored_sim->load_state(r);
      restored->load_state(r);
      EXPECT_EQ(r.remaining(), 0u);
      collector = std::move(restored);
      sim = std::move(restored_sim);
      if (s.perturb_view) collector->set_view_perturbation(&view);
    }
    if (f == s.swap_remap_at) collector->set_image_to_grid(swapped_remap(cam, cfg));
    view = view_at(f);
    collector->step();
    frames.push_back(collector->last_frame());
  }
  return frames;
}

std::vector<Image> run_reference(const Scenario& s) {
  const CollectorConfig cfg = full_vp();
  const vision::BackgroundSubtractionConfig bg_cfg;  // the collector's own
  auto sim = warm_sim(s);
  const sim::CameraModel cam(sim->intersection().geometry());
  Rng rng(s.sim_seed + 100);
  Homography to_grid = cam.image_to_grid(cfg.grid_w, cfg.grid_h);
  Image background;
  int frames_seen = 0;
  std::vector<Image> frames;
  for (int f = 0; f < kFrames; ++f) {
    if (f == s.swap_remap_at) to_grid = swapped_remap(cam, cfg);
    const Homography view = view_at(f);
    sim->step();
    const Image frame = cam.render(*sim, rng, s.perturb_view ? &view : nullptr);
    Image mask(frame.width(), frame.height(), 0.0f);
    if (background.empty()) {
      background = frame;
      frames_seen = 1;
    } else {
      const float a = bg_cfg.learning_rate;
      for (std::size_t i = 0; i < background.size(); ++i) {
        background.data()[i] = (1.0f - a) * background.data()[i] + a * frame.data()[i];
      }
      ++frames_seen;
      if (frames_seen > bg_cfg.warmup_frames) {
        mask = Image::absdiff(frame, background).threshold(bg_cfg.threshold);
        if (bg_cfg.apply_opening) mask = testing::reference_opening(mask);
      }
    }
    frames.push_back(to_grid.warp(mask, cfg.grid_w, cfg.grid_h).threshold(0.5f));
  }
  return frames;
}

bool same_bits(const Image& a, const Image& b) {
  return a.width() == b.width() && a.height() == b.height() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

class FullVPParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FullVPParity, CollectorMatchesFloatReferenceChain) {
  const Scenario& s = scenarios()[GetParam()];
  const std::vector<Image> got = run_collector(s);
  const std::vector<Image> want = run_reference(s);
  ASSERT_EQ(got.size(), want.size());
  std::size_t set_cells = 0;
  for (std::size_t f = 0; f < got.size(); ++f) {
    ASSERT_TRUE(same_bits(got[f], want[f])) << s.name << " frame " << f;
    set_cells += got[f].count_above(0.5f);
  }
  // Parity over empty grids would prove nothing.
  EXPECT_GT(set_cells, 0u) << s.name;
}

INSTANTIATE_TEST_SUITE_P(Scenarios, FullVPParity,
                         ::testing::Range<std::size_t>(0, scenarios().size()),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return std::string(scenarios()[info.param].name);
                         });

// Cut from Release builds (GCC 12.2, -O3) of the float-mask collector,
// both with -march=native on an AVX-512 (x86-64-v4) host, where the float
// math contracts to FMA, and with SAFECROSS_NATIVE_ARCH=OFF (x86-64
// baseline, no FMA). The two builds gave the same value, so unlike the
// conv pins this one needs no value per ISA class.
TEST(FullVPPinnedBits, TopdownFramesMatchPinnedChecksum) {
  std::uint32_t crc = 0;
  std::size_t set_cells = 0;
  for (const Scenario& s : scenarios()) {
    for (const Image& frame : run_collector(s)) {
      crc = common::crc32(frame.data(), frame.size() * sizeof(float), crc);
      set_cells += frame.count_above(0.5f);
    }
  }
  constexpr std::uint32_t kPinned = 0x81792343u;
  EXPECT_EQ(crc, kPinned) << std::hex << "crc 0x" << crc << std::dec << ", " << set_cells
                          << " set cells";
}

}  // namespace
}  // namespace safecross::dataset
