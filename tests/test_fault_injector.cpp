#include "runtime/fault_injector.h"

#include <cstddef>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/state_io.h"

namespace safecross::runtime {
namespace {

namespace fs = std::filesystem;

TEST(FaultInjector, DefaultPlanInjectsNothing) {
  FaultInjector inj(FaultPlan{}, 1);
  EXPECT_FALSE(inj.plan().enabled());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(inj.next_frame_fault(), FrameFault::None);
  }
  EXPECT_EQ(inj.frames_dropped(), 0u);
  EXPECT_EQ(inj.frames_frozen(), 0u);
  EXPECT_EQ(inj.noise_bursts(), 0u);
  EXPECT_EQ(inj.blackout_frames_total(), 0u);
  EXPECT_FALSE(inj.next_switch_fails());
}

TEST(FaultInjector, PerturbWithNoFaultLeavesFrameUntouched) {
  FaultInjector inj(FaultPlan{}, 2);
  vision::Image frame(8, 6, 1.0f);
  inj.next_frame_fault();
  inj.perturb(frame);
  for (std::size_t i = 0; i < frame.size(); ++i) EXPECT_EQ(frame.data()[i], 1.0f);
}

TEST(FaultInjector, SameSeedSamePlanSameFaultSequence) {
  FaultPlan plan;
  plan.drop_prob = 0.1;
  plan.freeze_prob = 0.05;
  plan.noise_prob = 0.05;
  plan.blackout_prob = 0.002;
  FaultInjector a(plan, 42), b(plan, 42);
  for (int i = 0; i < 3000; ++i) {
    EXPECT_EQ(a.next_frame_fault(), b.next_frame_fault()) << "frame " << i;
  }
  EXPECT_EQ(a.frames_dropped(), b.frames_dropped());
  EXPECT_EQ(a.blackout_frames_total(), b.blackout_frames_total());
}

TEST(FaultInjector, DropRateApproximatesPlan) {
  FaultPlan plan;
  plan.drop_prob = 0.2;
  FaultInjector inj(plan, 7);
  const int n = 10000;
  for (int i = 0; i < n; ++i) inj.next_frame_fault();
  const double rate = static_cast<double>(inj.frames_dropped()) / n;
  EXPECT_NEAR(rate, 0.2, 0.03);
}

TEST(FaultInjector, AtMostOneFaultPerFrameAndCountersAddUp) {
  FaultPlan plan;
  plan.drop_prob = 0.15;
  plan.freeze_prob = 0.15;
  plan.noise_prob = 0.15;
  plan.blackout_prob = 0.01;
  plan.blackout_frames = 5;
  FaultInjector inj(plan, 11);
  const int n = 5000;
  std::size_t none = 0;
  for (int i = 0; i < n; ++i) {
    if (inj.next_frame_fault() == FrameFault::None) ++none;
  }
  EXPECT_EQ(none + inj.frames_dropped() + inj.frames_frozen() + inj.noise_bursts() +
                inj.blackout_frames_total(),
            static_cast<std::size_t>(n));
  EXPECT_EQ(inj.frames_seen(), static_cast<std::size_t>(n));
}

TEST(FaultInjector, BlackoutRunsForConfiguredFrames) {
  FaultPlan plan;
  plan.blackout_prob = 0.01;
  plan.blackout_frames = 7;
  FaultInjector inj(plan, 13);
  // Find a blackout start and check it persists for exactly 7 frames.
  int i = 0;
  while (inj.next_frame_fault() != FrameFault::Blackout) {
    ASSERT_LT(++i, 100000) << "no blackout in 100k frames at p=0.01";
  }
  for (int k = 1; k < 7; ++k) {
    EXPECT_EQ(inj.next_frame_fault(), FrameFault::Blackout) << "blackout frame " << k;
  }
  // The interval has ended; with p=0.01 the next frame is almost surely
  // clear, but all that is guaranteed is that the forced run is over — so
  // just confirm the injector keeps answering.
  (void)inj.next_frame_fault();
}

TEST(FaultInjector, BlackoutZeroesFrame) {
  FaultPlan plan;
  plan.blackout_prob = 1.0;
  FaultInjector inj(plan, 17);
  ASSERT_EQ(inj.next_frame_fault(), FrameFault::Blackout);
  vision::Image frame(10, 10, 1.0f);
  inj.perturb(frame);
  EXPECT_EQ(frame.count_above(0.0f), 0u);
}

TEST(FaultInjector, NoiseBurstFlipsCellsKeepsOccupancyBinary) {
  FaultPlan plan;
  plan.noise_prob = 1.0;
  plan.noise_density = 0.5f;
  FaultInjector inj(plan, 19);
  ASSERT_EQ(inj.next_frame_fault(), FrameFault::NoiseBurst);
  vision::Image frame(36, 24, 0.0f);
  for (int x = 0; x < 10; ++x) frame.at(x, 3) = 1.0f;  // a "vehicle"
  inj.perturb(frame);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < frame.size(); ++i) {
    const float v = frame.data()[i];
    EXPECT_TRUE(v == 0.0f || v == 1.0f);
  }
  // ~half the empty cells lit up: the frame must have changed a lot.
  changed = frame.count_above(0.5f);
  EXPECT_GT(changed, 200u);
}

TEST(FaultInjector, SwitchFailureRateFollowsPlan) {
  FaultPlan plan;
  plan.switch_failure_prob = 0.5;
  FaultInjector inj(plan, 23);
  const int n = 2000;
  int fails = 0;
  for (int i = 0; i < n; ++i) {
    if (inj.next_switch_fails()) ++fails;
  }
  EXPECT_NEAR(static_cast<double>(fails) / n, 0.5, 0.05);
  EXPECT_EQ(inj.switch_failures(), static_cast<std::size_t>(fails));
}

struct TempFile {
  fs::path path;
  explicit TempFile(const char* name)
      : path(fs::temp_directory_path() / (std::string("safecross_fi_") +
                                          std::to_string(::getpid()) + "_" + name)) {}
  ~TempFile() {
    std::error_code ec;
    fs::remove(path, ec);
  }
};

TEST(FaultInjector, TruncateFileKeepsPrefix) {
  TempFile tmp("trunc.bin");
  {
    std::ofstream os(tmp.path, std::ios::binary);
    const char bytes[] = "0123456789abcdef";
    os.write(bytes, 16);
  }
  common::truncate_file(tmp.path, 5);
  EXPECT_EQ(fs::file_size(tmp.path), 5u);
  std::ifstream is(tmp.path, std::ios::binary);
  char head[5] = {};
  is.read(head, 5);
  EXPECT_EQ(std::string(head, 5), "01234");

  common::truncate_file(tmp.path, 0);
  EXPECT_EQ(fs::file_size(tmp.path), 0u);
}

TEST(FaultInjector, CorruptMagicFlipsHeaderOnly) {
  TempFile tmp("magic.bin");
  {
    std::ofstream os(tmp.path, std::ios::binary);
    const char bytes[] = {0x05, 0x11, 0x22, 0x33, 'T', 'A', 'I', 'L'};
    os.write(bytes, 8);
  }
  common::corrupt_magic(tmp.path);
  std::ifstream is(tmp.path, std::ios::binary);
  char bytes[8] = {};
  is.read(bytes, 8);
  EXPECT_EQ(bytes[0], static_cast<char>(~0x05));
  EXPECT_EQ(bytes[1], static_cast<char>(~0x11));
  EXPECT_EQ(std::string(bytes + 4, 4), "TAIL");
}

TEST(FaultInjectorGeometry, EnablingGeometryDoesNotShiftFrameFaultStream) {
  // The geometric stream draws from its own salted RNG; turning it on must
  // leave the drop/freeze/noise/blackout sequence bit-identical, or every
  // committed golden trace with a fault plan would silently shift.
  FaultPlan stream_only;
  stream_only.drop_prob = 0.1;
  stream_only.freeze_prob = 0.05;
  stream_only.noise_prob = 0.05;
  stream_only.blackout_prob = 0.002;
  FaultPlan with_geometry = stream_only;
  with_geometry.geometry.drift_px_per_frame = 0.05;
  with_geometry.geometry.shake_amp_px = 0.5;
  with_geometry.geometry.bump_prob = 0.01;

  FaultInjector a(stream_only, 4242), b(with_geometry, 4242);
  b.set_frame_size(256, 144);
  for (int i = 0; i < 5000; ++i) {
    EXPECT_EQ(a.next_frame_fault(), b.next_frame_fault()) << "frame " << i;
  }
  EXPECT_EQ(a.frames_dropped(), b.frames_dropped());
  EXPECT_EQ(a.frames_frozen(), b.frames_frozen());
  EXPECT_EQ(a.noise_bursts(), b.noise_bursts());
  EXPECT_EQ(a.blackout_frames_total(), b.blackout_frames_total());
  EXPECT_GT(b.perturbation_drift_px(), 0.0);  // geometry really ran
}

TEST(FaultInjectorGeometry, SameSeedSameViewTrajectory) {
  FaultPlan plan;
  plan.geometry.drift_px_per_frame = 0.03;
  plan.geometry.drift_rot_per_frame = 1e-4;
  plan.geometry.shake_amp_px = 0.8;
  plan.geometry.bump_prob = 0.02;
  FaultInjector a(plan, 99), b(plan, 99);
  a.set_frame_size(256, 144);
  b.set_frame_size(256, 144);
  for (int i = 0; i < 2000; ++i) {
    a.next_frame_fault();
    b.next_frame_fault();
    const auto& ma = a.view_perturbation().matrix();
    const auto& mb = b.view_perturbation().matrix();
    for (int m = 0; m < 9; ++m) ASSERT_EQ(ma[m], mb[m]) << "frame " << i;
  }
  EXPECT_EQ(a.bumps(), b.bumps());
}

TEST(FaultInjectorGeometry, DriftRampsBetweenStartAndStopThenHolds) {
  FaultPlan plan;
  plan.geometry.drift_px_per_frame = 0.1;
  plan.geometry.drift_start_frame = 10;
  plan.geometry.drift_stop_frame = 50;
  FaultInjector inj(plan, 7);
  inj.set_frame_size(256, 144);
  ASSERT_TRUE(inj.geometry_active());
  // Pure unit-direction translation: the mean corner drift IS the ramp.
  for (int f = 1; f <= 10; ++f) {
    inj.next_frame_fault();
    EXPECT_NEAR(inj.perturbation_drift_px(), 0.0, 1e-9) << "frame " << f;
  }
  for (int f = 11; f <= 50; ++f) {
    inj.next_frame_fault();
    EXPECT_NEAR(inj.perturbation_drift_px(), 0.1 * (f - 10), 1e-9) << "frame " << f;
  }
  for (int f = 51; f <= 80; ++f) {
    inj.next_frame_fault();
    EXPECT_NEAR(inj.perturbation_drift_px(), 0.1 * 40, 1e-9) << "frame " << f;
  }
}

TEST(FaultInjectorGeometry, GeometryInactiveWithoutFrameSize) {
  FaultPlan plan;
  plan.geometry.drift_px_per_frame = 0.1;
  FaultInjector inj(plan, 7);
  EXPECT_FALSE(inj.geometry_active());  // no frame size yet
  for (int f = 0; f < 100; ++f) inj.next_frame_fault();
  EXPECT_EQ(inj.perturbation_drift_px(), 0.0);
}

TEST(FaultInjectorGeometry, SaveLoadMidDriftContinuesBitIdentical) {
  FaultPlan plan;
  plan.drop_prob = 0.05;
  plan.noise_prob = 0.05;
  plan.geometry.drift_px_per_frame = 0.04;
  plan.geometry.shake_amp_px = 0.6;
  plan.geometry.bump_prob = 0.01;
  FaultInjector a(plan, 31337);
  a.set_frame_size(256, 144);
  for (int i = 0; i < 500; ++i) a.next_frame_fault();

  common::StateWriter w;
  a.save_state(w);
  const std::string bytes = w.take();

  // A different seed proves the checkpoint carries the full RNG + geometry
  // state rather than leaning on construction.
  FaultInjector b(plan, 1);
  common::StateReader r(bytes);
  b.load_state(r);

  for (int i = 0; i < 500; ++i) {
    ASSERT_EQ(a.next_frame_fault(), b.next_frame_fault()) << "frame " << i;
    const auto& ma = a.view_perturbation().matrix();
    const auto& mb = b.view_perturbation().matrix();
    for (int m = 0; m < 9; ++m) ASSERT_EQ(ma[m], mb[m]) << "frame " << i;
  }
  EXPECT_EQ(a.bumps(), b.bumps());
  EXPECT_EQ(a.frames_dropped(), b.frames_dropped());
}

TEST(FaultInjector, WriteGarbageIsDeterministic) {
  TempFile a("garbage_a.bin"), b("garbage_b.bin");
  common::write_garbage(a.path, 256, 99);
  common::write_garbage(b.path, 256, 99);
  std::ifstream ia(a.path, std::ios::binary), ib(b.path, std::ios::binary);
  std::vector<char> da(256), db(256);
  ia.read(da.data(), 256);
  ib.read(db.data(), 256);
  EXPECT_EQ(da, db);
  EXPECT_EQ(fs::file_size(a.path), 256u);
}

}  // namespace
}  // namespace safecross::runtime
