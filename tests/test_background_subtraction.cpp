#include "vision/background_subtraction.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>

#include "morphology_reference.h"
#include "sim/camera.h"
#include "sim/traffic.h"

namespace safecross::vision {
namespace {

// A moving 3x3 bright block over a dark scene.
Image frame_with_block(int w, int h, int bx, int by) {
  Image img(w, h, 0.1f);
  for (int y = by; y < by + 3 && y < h; ++y) {
    for (int x = bx; x < bx + 3 && x < w; ++x) img.at(x, y) = 0.9f;
  }
  return img;
}

TEST(BackgroundSubtraction, WarmupProducesEmptyMask) {
  BackgroundSubtractionConfig cfg;
  cfg.warmup_frames = 5;
  RunningAverageBackground bg(cfg);
  for (int i = 0; i < 5; ++i) {
    const Image mask = bg.apply(Image(16, 16, 0.1f));
    EXPECT_EQ(mask.count_above(0.5f), 0u) << "frame " << i;
  }
}

TEST(BackgroundSubtraction, DetectsMovingBlock) {
  BackgroundSubtractionConfig cfg;
  cfg.warmup_frames = 5;
  cfg.apply_opening = false;
  RunningAverageBackground bg(cfg);
  for (int i = 0; i < 10; ++i) bg.apply(Image(32, 16, 0.1f));
  // A block appears where the background was flat.
  const Image mask = bg.apply(frame_with_block(32, 16, 10, 6));
  EXPECT_GE(mask.count_above(0.5f), 6u);
  EXPECT_FLOAT_EQ(mask.at(11, 7), 1.0f);
  EXPECT_FLOAT_EQ(mask.at(2, 2), 0.0f);
}

TEST(BackgroundSubtraction, StationaryObjectMeltsIntoBackground) {
  BackgroundSubtractionConfig cfg;
  cfg.warmup_frames = 2;
  cfg.learning_rate = 0.2f;
  cfg.apply_opening = false;
  RunningAverageBackground bg(cfg);
  for (int i = 0; i < 5; ++i) bg.apply(Image(16, 16, 0.1f));
  // The same block parked for many frames fades from the mask.
  std::size_t last = 0;
  for (int i = 0; i < 60; ++i) last = bg.apply(frame_with_block(16, 16, 5, 5)).count_above(0.5f);
  EXPECT_EQ(last, 0u);
}

TEST(BackgroundSubtraction, StaticBackgroundKeepsDetectingParkedObject) {
  BackgroundSubtractionConfig cfg;
  cfg.warmup_frames = 3;
  cfg.apply_opening = false;
  StaticBackground bg(cfg);
  for (int i = 0; i < 5; ++i) bg.apply(Image(16, 16, 0.1f));
  std::size_t last = 0;
  for (int i = 0; i < 60; ++i) last = bg.apply(frame_with_block(16, 16, 5, 5)).count_above(0.5f);
  EXPECT_GE(last, 6u);  // static model never absorbs it
}

TEST(BackgroundSubtraction, OpeningSuppressesSinglePixelNoise) {
  BackgroundSubtractionConfig cfg;
  cfg.warmup_frames = 2;
  cfg.apply_opening = true;
  RunningAverageBackground bg(cfg);
  for (int i = 0; i < 5; ++i) bg.apply(Image(16, 16, 0.1f));
  Image noisy(16, 16, 0.1f);
  noisy.at(8, 8) = 0.9f;  // single-pixel "sensor noise"
  const Image mask = bg.apply(noisy);
  EXPECT_EQ(mask.count_above(0.5f), 0u);
}

TEST(BackgroundSubtraction, ResetForgetsBackground) {
  RunningAverageBackground bg;
  bg.apply(Image(8, 8, 0.5f));
  EXPECT_FALSE(bg.background().empty());
  bg.reset();
  EXPECT_TRUE(bg.background().empty());
  EXPECT_EQ(bg.frames_seen(), 0);
}

TEST(BackgroundSubtraction, DynamicBackgroundTracksIlluminationDrift) {
  BackgroundSubtractionConfig cfg;
  cfg.warmup_frames = 2;
  cfg.learning_rate = 0.1f;
  cfg.apply_opening = false;
  RunningAverageBackground bg(cfg);
  // Slowly brightening scene (dawn): no foreground should fire.
  std::size_t false_positives = 0;
  for (int i = 0; i < 100; ++i) {
    const float level = 0.1f + 0.003f * static_cast<float>(i);
    false_positives += bg.apply(Image(16, 16, level)).count_above(0.5f);
  }
  EXPECT_EQ(false_positives, 0u);
}

// A frame whose size differs from the learned background must be refused
// before the update loop reads past either buffer.
TEST(BackgroundSubtraction, RunningAverageRejectsFrameOfAnotherSize) {
  RunningAverageBackground bg;
  for (int i = 0; i < 3; ++i) bg.apply_bits(Image(64, 64, 0.2f));
  EXPECT_THROW(bg.apply_bits(Image(8, 8, 0.9f)), std::invalid_argument);
  EXPECT_THROW(bg.apply(Image(64, 8, 0.9f)), std::invalid_argument);
  EXPECT_EQ(bg.frames_seen(), 3);
  EXPECT_FLOAT_EQ(bg.background().at(63, 63), 0.2f);
}

TEST(BackgroundSubtraction, StaticBackgroundRejectsFrameOfAnotherSize) {
  BackgroundSubtractionConfig cfg;
  cfg.warmup_frames = 2;
  StaticBackground bg(cfg);
  bg.apply_bits(Image(64, 64, 0.2f));
  EXPECT_THROW(bg.apply_bits(Image(8, 8, 0.9f)), std::invalid_argument);  // in warm-up
  for (int i = 0; i < 3; ++i) bg.apply_bits(Image(64, 64, 0.2f));
  EXPECT_THROW(bg.apply_bits(Image(8, 8, 0.9f)), std::invalid_argument);  // frozen
}

TEST(BackgroundSubtraction, RestoredBackgroundOfAnotherSizeIsRefused) {
  RunningAverageBackground learned;
  for (int i = 0; i < 3; ++i) learned.apply_bits(Image(64, 64, 0.2f));
  common::StateWriter w;
  learned.save_state(w);
  RunningAverageBackground restored;
  common::StateReader r(w.bytes());
  restored.load_state(r);
  EXPECT_THROW(restored.apply_bits(Image(8, 8, 0.9f)), std::invalid_argument);
  EXPECT_EQ(restored.apply_bits(Image(64, 64, 0.2f)).width(), 64);
}

// The fused pass (update, |F - B| > threshold, pack, opening on bits)
// against the float chain it replaced, on rendered camera frames: the
// masks and the learned background must match bit for bit.
TEST(BackgroundSubtraction, PackedMaskMatchesFloatChainOnCameraFrames) {
  // Seeds with traffic in view (fog hides most of its light traffic).
  const std::pair<Weather, std::uint64_t> runs[] = {{Weather::Daytime, 28}, {Weather::Rain, 19},
                                                    {Weather::Snow, 13},    {Weather::Night, 7},
                                                    {Weather::Fog, 27}};
  for (const auto& [weather, seed] : runs) {
    sim::TrafficSimulator sim(sim::weather_params(weather), seed);
    const sim::CameraModel cam(sim.intersection().geometry());
    for (int i = 0; i < 600; ++i) sim.step();
    Rng rng(5);
    const BackgroundSubtractionConfig cfg;
    RunningAverageBackground bg(cfg);
    StaticBackground frozen(cfg);
    Image ref_bg;
    std::size_t foreground = 0;
    for (int f = 0; f < 40; ++f) {
      sim.step();
      const Image frame = cam.render(sim, rng);
      if (f == 0) {
        ref_bg = frame;
      } else {
        const float a = cfg.learning_rate;
        for (std::size_t i = 0; i < ref_bg.size(); ++i) {
          ref_bg.data()[i] = (1.0f - a) * ref_bg.data()[i] + a * frame.data()[i];
        }
      }
      const BitMask& got = bg.apply_bits(frame);
      ASSERT_EQ(std::memcmp(bg.background().data(), ref_bg.data(), ref_bg.size() * sizeof(float)),
                0)
          << "background, frame " << f;
      Image want(frame.width(), frame.height(), 0.0f);
      if (f >= cfg.warmup_frames) {
        want = testing::reference_opening(Image::absdiff(frame, ref_bg).threshold(cfg.threshold));
      }
      ASSERT_TRUE(got == BitMask::from_image(want)) << "mask, frame " << f;
      foreground += got.count();

      // The frozen background stops changing after warm-up.
      const BitMask& frozen_got = frozen.apply_bits(frame);
      if (f >= cfg.warmup_frames) {
        const Image frozen_want = testing::reference_opening(
            Image::absdiff(frame, frozen.background()).threshold(cfg.threshold));
        ASSERT_TRUE(frozen_got == BitMask::from_image(frozen_want)) << "static, frame " << f;
      }
    }
    EXPECT_GT(foreground, 0u) << static_cast<int>(weather);
  }
}

}  // namespace
}  // namespace safecross::vision
