// RecalibrationLoop state machine, driven by stub estimators so every
// transition is exercised deterministically: drift latch, conservative
// gating through HealthMonitor, solve-latency countdown, the atomic
// apply, failed-estimate retries, and checkpoint round-trips.

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/state_io.h"
#include "runtime/recalibration.h"

namespace safecross::runtime {
namespace {

using vision::CalibrationEstimate;
using vision::Homography;

Homography shift(double dx, double dy) {
  return Homography({1, 0, dx, 0, 1, dy, 0, 0, 1});
}

CalibrationEstimate good_estimate(const Homography& view) {
  CalibrationEstimate est;
  est.ok = true;
  est.view = view;
  est.residual_rms = 0.2;
  est.inliers = 30;
  return est;
}

RecalibrationConfig test_config() {
  RecalibrationConfig cfg;
  cfg.enabled = true;
  cfg.check_every_frames = 10;
  cfg.drift_threshold_px = 0.75;
  cfg.solve_latency_frames = 5;
  cfg.frame_width = 256;
  cfg.frame_height = 144;
  return cfg;
}

TEST(ViewDrift, TranslationDriftIsItsMagnitude) {
  EXPECT_NEAR(view_drift_px(shift(3.0, 4.0), Homography(), 256, 144), 5.0, 1e-12);
  EXPECT_NEAR(view_drift_px(Homography(), Homography(), 256, 144), 0.0, 1e-12);
}

TEST(RecalibrationLoop, DriftLatchesThenSwapsAfterSolveLatency) {
  HealthMonitor health{HealthConfig{}};
  Homography drift;  // what the stub estimator currently "sees"
  std::vector<Homography> applied;
  RecalibrationLoop loop(
      test_config(), Homography(), &health,
      [&](const Homography&) { return good_estimate(drift); },
      [&](const Homography& h) { applied.push_back(h); });

  // Calibrated and drift-free: checks run, nothing latches.
  for (std::uint64_t f = 1; f <= 20; ++f) loop.on_frame(f);
  EXPECT_EQ(loop.state(), CalibrationState::Calibrated);
  EXPECT_EQ(loop.checks_run(), 2u);
  EXPECT_FALSE(health.miscalibrated());

  // The camera moves 2 px: the frame-30 check must latch and start the
  // solve in the same call (the detecting estimate is the candidate).
  drift = shift(2.0, 0.0);
  loop.on_frame(30);
  EXPECT_EQ(loop.state(), CalibrationState::Recalibrating);
  EXPECT_TRUE(health.miscalibrated());
  EXPECT_EQ(loop.miscalibration_episodes(), 1u);
  EXPECT_NEAR(loop.last_drift_px(), 2.0, 1e-12);

  // Solve latency: 5 frames of countdown, still latched.
  for (std::uint64_t f = 31; f <= 34; ++f) loop.on_frame(f);
  EXPECT_TRUE(health.miscalibrated());
  ASSERT_TRUE(applied.empty());

  loop.on_frame(35);  // countdown hits zero: swap + unlatch
  EXPECT_EQ(loop.state(), CalibrationState::Calibrated);
  EXPECT_FALSE(health.miscalibrated());
  EXPECT_EQ(loop.recalibrations(), 1u);
  ASSERT_EQ(applied.size(), 1u);
  // Corrected remap = ideal_grid * view^-1: for identity ideal grid and a
  // +2 px x-shift view, the applied matrix sends pixels 2 px back.
  EXPECT_NEAR(applied[0].apply({10.0, 10.0}).x, 8.0, 1e-12);

  const std::vector<RecalibrationEntry> completed = loop.take_completed();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].frame, 35u);
  EXPECT_EQ(completed[0].attempts, 1u);
  EXPECT_TRUE(loop.take_completed().empty());  // drained
}

TEST(RecalibrationLoop, FailedEstimateKeepsWarningUntilASolveLands) {
  HealthMonitor health{HealthConfig{}};
  Homography drift = shift(2.0, 0.0);
  bool estimator_up = true;
  int calls = 0;
  RecalibrationLoop loop(
      test_config(), Homography(), &health,
      [&](const Homography&) {
        ++calls;
        CalibrationEstimate est;
        if (estimator_up) est = good_estimate(drift);
        else est.error = "too few corner tracks";
        return est;
      },
      [](const Homography&) {});

  // Latch normally, then make the estimator fail before the solve lands:
  // that can only happen on the *next* episode, so first complete one.
  loop.on_frame(10);
  for (std::uint64_t f = 11; f <= 15; ++f) loop.on_frame(f);
  ASSERT_EQ(loop.state(), CalibrationState::Calibrated);

  // Second episode: detection sees more drift, but then the estimator
  // goes down — the detecting estimate still starts a solve. To pin the
  // Miscalibrated-with-retries path, fail the *detection* estimate's
  // successor: drift again and cut the estimator right after the latch.
  drift = shift(4.5, 0.0);
  loop.on_frame(20);
  ASSERT_EQ(loop.state(), CalibrationState::Recalibrating);
  for (std::uint64_t f = 21; f <= 25; ++f) loop.on_frame(f);
  ASSERT_EQ(loop.state(), CalibrationState::Calibrated);

  // Third episode with a flaky estimator: the drift check itself fails, so
  // nothing latches (single-attempt detection is deliberate); once it
  // recovers, the latch fires and a solve starts.
  drift = shift(7.0, 0.0);
  estimator_up = false;
  loop.on_frame(30);
  EXPECT_EQ(loop.state(), CalibrationState::Calibrated);
  EXPECT_GT(loop.estimates_rejected(), 0u);
  estimator_up = true;
  loop.on_frame(40);
  EXPECT_EQ(loop.state(), CalibrationState::Recalibrating);
  EXPECT_TRUE(health.miscalibrated());
  EXPECT_GT(calls, 3);
}

TEST(RecalibrationLoop, MiscalibratedRetriesUnderBackoffBudget) {
  HealthMonitor health{HealthConfig{}};
  // Phase 0: detection "succeeds" but with a degenerate (rank-2) view, so
  // start_solve cannot invert it — the only path into the Miscalibrated
  // holding state. Phase 1: every estimate fails outright. Phase 2: the
  // first two attempts fail, the third lands.
  int phase = 0;
  int attempts_in_check = 0;
  RecalibrationLoop loop(
      test_config(), Homography(), &health,
      [&](const Homography&) {
        CalibrationEstimate est;
        if (phase == 0) {
          est.ok = true;
          est.view = Homography({1, 0, 5, 0, 0, 0, 0, 0, 1});  // det == 0
          return est;
        }
        if (phase == 1) {
          est.error = "too few corner tracks";
          return est;
        }
        if (++attempts_in_check < 3) {
          est.error = "degenerate inlier fit";
          return est;
        }
        return good_estimate(shift(3.0, 0.0));
      },
      [](const Homography&) {});

  // Degenerate candidate: drift latches but no solve starts.
  loop.on_frame(10);
  EXPECT_EQ(loop.state(), CalibrationState::Miscalibrated);
  EXPECT_TRUE(health.miscalibrated());
  EXPECT_EQ(loop.miscalibration_episodes(), 1u);
  EXPECT_EQ(loop.estimates_rejected(), 1u);

  // Retry budget exhausted this check: warnings persist, no state change.
  phase = 1;
  loop.on_frame(20);
  EXPECT_EQ(loop.state(), CalibrationState::Miscalibrated);
  EXPECT_TRUE(health.miscalibrated());
  EXPECT_EQ(loop.estimates_rejected(), 2u);

  // Third attempt of the next check lands; the record counts all three.
  phase = 2;
  loop.on_frame(30);
  ASSERT_EQ(loop.state(), CalibrationState::Recalibrating);
  for (std::uint64_t f = 31; f <= 35; ++f) loop.on_frame(f);
  EXPECT_EQ(loop.state(), CalibrationState::Calibrated);
  EXPECT_FALSE(health.miscalibrated());
  EXPECT_EQ(loop.recalibrations(), 1u);
  const std::vector<RecalibrationEntry> completed = loop.take_completed();
  ASSERT_EQ(completed.size(), 1u);
  EXPECT_EQ(completed[0].attempts, 3u);
}

TEST(RecalibrationLoop, DisabledLoopNeverCallsTheEstimator) {
  HealthMonitor health{HealthConfig{}};
  int calls = 0;
  RecalibrationConfig cfg = test_config();
  cfg.enabled = false;
  RecalibrationLoop loop(
      cfg, Homography(), &health,
      [&](const Homography&) {
        ++calls;
        return good_estimate(Homography());
      },
      [](const Homography&) {});
  for (std::uint64_t f = 1; f <= 100; ++f) loop.on_frame(f);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(loop.checks_run(), 0u);
}

TEST(RecalibrationLoop, CheckpointRoundTripsMidCountdown) {
  HealthMonitor health{HealthConfig{}};
  Homography drift = shift(1.5, -1.0);
  std::vector<Homography> applied_a;
  RecalibrationLoop a(
      test_config(), Homography(), &health,
      [&](const Homography&) { return good_estimate(drift); },
      [&](const Homography& h) { applied_a.push_back(h); });
  a.on_frame(10);  // latch + start solve
  a.on_frame(11);
  a.on_frame(12);  // mid-countdown
  ASSERT_EQ(a.state(), CalibrationState::Recalibrating);

  common::StateWriter w;
  a.save_state(w);
  health.save_state(w);
  const std::string bytes = w.take();

  HealthMonitor health_b{HealthConfig{}};
  std::vector<Homography> applied_b;
  RecalibrationLoop b(
      test_config(), Homography(), &health_b,
      [&](const Homography&) { return good_estimate(drift); },
      [&](const Homography& h) { applied_b.push_back(h); });
  common::StateReader r(bytes);
  b.load_state(r);
  health_b.load_state(r);

  for (std::uint64_t f = 13; f <= 15; ++f) {
    a.on_frame(f);
    b.on_frame(f);
  }
  EXPECT_EQ(a.state(), b.state());
  EXPECT_EQ(a.recalibrations(), b.recalibrations());
  ASSERT_EQ(applied_a.size(), 1u);
  ASSERT_EQ(applied_b.size(), 1u);
  for (int i = 0; i < 9; ++i) {
    EXPECT_EQ(applied_a[0].matrix()[i], applied_b[0].matrix()[i]);
  }
  const auto ca = a.take_completed();
  const auto cb = b.take_completed();
  ASSERT_EQ(ca.size(), 1u);
  ASSERT_EQ(cb.size(), 1u);
  EXPECT_EQ(ca[0].frame, cb[0].frame);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(ca[0].image_to_grid[i], cb[0].image_to_grid[i]);
}

TEST(RecalibrationLoop, LoadRejectsAnEntryCountLargerThanThePayload) {
  HealthMonitor health{HealthConfig{}};
  RecalibrationLoop a(
      test_config(), Homography(), &health,
      [](const Homography&) { return good_estimate(Homography()); }, [](const Homography&) {});
  common::StateWriter w;
  a.save_state(w);
  std::string bytes = w.take();

  // With no completed entries the count is the u64 just before the four
  // u64 counters and the f64 drift that end the state. Claim 2^40.
  const std::size_t count_at = bytes.size() - 4 * 8 - 8 - 8;
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + count_at, &huge, sizeof(huge));

  RecalibrationLoop b(
      test_config(), Homography(), &health,
      [](const Homography&) { return good_estimate(Homography()); }, [](const Homography&) {});
  common::StateReader r(bytes);
  EXPECT_THROW(b.load_state(r), common::StateError);
}

}  // namespace

}  // namespace safecross::runtime
