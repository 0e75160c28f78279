// The binary state codec (common/state_io.h) and the persist() layout
// bodies built on it:
//   * StatePinnedBits — CRC32 pins of StreamContext snapshots and of a
//     journal holding every record type. The snapshot and journal byte
//     formats are on-disk contracts; these pins catch any drift in them.
//   * StateCodec — the reader's primitives, and the hostile counts and
//     enum bytes a simulator state once answered with bad_alloc or
//     length_error, or restored cleanly only to crash the next step().

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/state_io.h"
#include "runtime/fault_injector.h"
#include "runtime/health_monitor.h"
#include "runtime/journal.h"
#include "serving/stream.h"
#include "state_scenarios.h"
#include "sim/traffic.h"
#include "sim/weather.h"

namespace safecross {
namespace {

using testing::fast_stream;
using testing::faulty_stream;
using testing::fullvp_stream;
using testing::run;

namespace fs = std::filesystem;

std::uint32_t state_crc(const serving::StreamConfig& cfg, int frames) {
  serving::StreamContext ctx(cfg);
  ctx.set_record_trace(true);
  run(ctx, frames);
  EXPECT_FALSE(ctx.trace().empty()) << cfg.name << ": weak scenario, no decision";
  if (ctx.recalibration() != nullptr) {
    EXPECT_GT(ctx.recalibration()->recalibrations(), 0u) << cfg.name << ": never recalibrated";
    EXPECT_GT(ctx.switch_epoch(), 0u) << cfg.name << ": no model switch";
  }
  common::StateWriter w;
  ctx.save_state(w);
  return common::crc32(w.bytes());
}

/// One record of each of the five journal record types.
std::vector<runtime::JournalRecord> every_record_type() {
  std::vector<runtime::JournalRecord> out;
  runtime::JournalRecord d;
  d.type = runtime::JournalRecordType::Decision;
  d.decision = {3, 17, 420, true, 0, 0.8125f, true, 2, 1.5, 9};
  out.push_back(d);
  runtime::JournalRecord c;
  c.type = runtime::JournalRecordType::Recalibration;
  c.recalibration = {1, 360, {1.0, 0.01, -2.5, -0.01, 1.0, 3.25, 0.0, 0.0, 1.0}, 0.125, 2.4, 3};
  out.push_back(c);
  for (runtime::JournalRecordType t :
       {runtime::JournalRecordType::ModelSwitchBegin, runtime::JournalRecordType::ModelSwitchCommit,
        runtime::JournalRecordType::ModelSwitchAbort}) {
    runtime::JournalRecord p;
    p.type = t;
    p.switch_phase = {5, 1, 2, static_cast<std::uint8_t>(out.size() - 2), 12.5, 64};
    out.push_back(p);
  }
  return out;
}

// Cut on the hand-mirrored save_state/load_state codec, before the
// persist() port, from GCC 12.2 -O3 builds. The simulator's double math
// contracts to FMA under -march=native, so the stream pins carry one
// value per FMA build: the FMA values come from a -march=native build on
// an AVX-512 host, the plain ones from SAFECROSS_NATIVE_ARCH=OFF. The
// journal pin is the same in both. A change here is a snapshot or
// journal format change: it needs a version bump, not a new pin.
struct StreamPins {
  std::uint32_t fast, fullvp, faulty;
};

#if defined(__FMA__)
constexpr StreamPins kStreamPins{0x707b1396u, 0x2e3fe35fu, 0x125a9933u};
#else
constexpr StreamPins kStreamPins{0x340b6cd0u, 0x5f0fa5deu, 0x91cf7bf6u};
#endif

TEST(StatePinnedBits, StreamSnapshotsMatchPinnedChecksums) {
  const std::uint32_t fast = state_crc(fast_stream(), 600);
  const std::uint32_t fullvp = state_crc(fullvp_stream(), 300);
  const std::uint32_t faulty = state_crc(faulty_stream(), 600);
  EXPECT_EQ(fast, kStreamPins.fast) << std::hex << "fast 0x" << fast;
  EXPECT_EQ(fullvp, kStreamPins.fullvp) << std::hex << "fullvp 0x" << fullvp;
  EXPECT_EQ(faulty, kStreamPins.faulty) << std::hex << "faulty 0x" << faulty;
}

TEST(StatePinnedBits, JournalMatchesPinnedChecksum) {
  const fs::path path =
      fs::temp_directory_path() / ("safecross_pin_journal_" + std::to_string(::getpid()));
  fs::remove(path);
  {
    runtime::Journal journal;
    journal.open(path, runtime::JournalConfig{runtime::FsyncPolicy::None, 32});
    for (const runtime::JournalRecord& rec : every_record_type()) journal.append(rec);
  }
  const std::uint32_t crc = common::crc32(common::read_file(path));
  const runtime::Journal::ReplayReport replay = runtime::Journal::replay(path);
  fs::remove(path);
  EXPECT_EQ(replay.records.size(), 5u);
  EXPECT_FALSE(replay.torn_tail) << replay.tail_error;
  EXPECT_EQ(crc, 0xd8954489u) << std::hex << "journal 0x" << crc;
}

// ---------- reader primitives ----------

TEST(StateCodec, CountIsBoundedByTheBytesLeft) {
  common::StateWriter w;
  w.u64(3);
  w.u64(0);
  w.u64(0);
  w.u64(0);
  {
    common::StateReader r(w.bytes());
    EXPECT_EQ(r.count(8), 3u);  // exactly three u64s follow
  }
  {
    common::StateReader r(w.bytes());
    EXPECT_THROW(r.count(9), common::StateError);
  }
}

TEST(StateCodec, SeqBoundsItsCountByTheDefaultElementsEncoding) {
  // Three bytes follow the count: enough for three 1-byte elements, not
  // for one 8-byte element.
  common::StateWriter w;
  w.u64(3);
  w.raw("\0\0\0", 3);
  std::vector<std::uint64_t> words;
  common::StateReader r(w.bytes());
  EXPECT_THROW(r.seq(words, [](auto& a, auto& v) { a.u64(v); }), common::StateError);
  std::vector<std::uint8_t> bytes;
  common::StateReader r2(w.bytes());
  r2.seq(bytes, [](auto& a, auto& v) { a.u8(v); });
  EXPECT_EQ(bytes.size(), 3u);
  EXPECT_TRUE(r2.at_end());
}

TEST(StateCodec, EnumAndBooleanBytesAreRangeChecked) {
  const std::string bytes = {0, 1, 2, 3};
  common::StateReader r(bytes);
  sim::DriverState s{};
  r.enum_u8(s, sim::DriverState::Done);
  EXPECT_EQ(s, sim::DriverState::Cruising);
  bool b = false;
  r.boolean(b);
  EXPECT_TRUE(b);
  EXPECT_THROW(r.boolean(b), common::StateError);  // 2
  const std::string done = {3, 4};
  common::StateReader r2(done);
  EXPECT_NO_THROW(r2.enum_u8(s, sim::DriverState::Done));  // 3 == Done
  EXPECT_THROW(r2.enum_u8(s, sim::DriverState::Done), common::StateError);  // 4
}

// ---------- hostile simulator states ----------

constexpr std::size_t kRngBytes = 4 * 8 + 8 + 1;
constexpr std::size_t kVehicleBytes = 8 + 1 + 1 + 6 * 8 + 1 + 2 * 8;
constexpr std::size_t kVehiclesAt = kRngBytes + 8 + 8;  // after rng, time, next_id

sim::TrafficSimulator make_sim() {
  return sim::TrafficSimulator(sim::weather_params(dataset::Weather::Daytime), 4242);
}

std::string sim_state(int steps, sim::TrafficSimulator& sim) {
  for (int i = 0; i < steps; ++i) sim.step();
  common::StateWriter w;
  sim.save_state(w);
  return w.take();
}

/// Byte offsets of the simulator state's five element counts.
std::vector<std::size_t> count_offsets(const sim::TrafficSimulator& sim) {
  std::vector<std::size_t> at = {kVehiclesAt};
  at.push_back(at.back() + 8 + sim.vehicles().size() * kVehicleBytes);  // spawn timers
  at.push_back(at.back() + 8 + sim::kNumRoutes * 8);                    // keyframes[0]
  at.push_back(at.back() + 8 +
                sim.turn_keyframes(sim::Approach::EastboundLeft).size() * 8);  // keyframes[1]
  at.push_back(at.back() + 8 +
                sim.turn_keyframes(sim::Approach::WestboundLeft).size() * 8 +
                sim::kNumApproaches * 8);  // pedestrians, after the turn tallies
  return at;
}

TEST(StateCodec, UntouchedSimulatorStateRoundTrips) {
  sim::TrafficSimulator a = make_sim();
  const std::string bytes = sim_state(400, a);
  ASSERT_GT(a.vehicles().size(), 0u);
  const std::vector<std::size_t> at = count_offsets(a);
  std::uint64_t peds = ~0ull;
  std::memcpy(&peds, bytes.data() + at.back(), 8);
  EXPECT_EQ(peds, a.pedestrians().size()) << "count offsets drifted from the layout";

  sim::TrafficSimulator b = make_sim();
  common::StateReader r(bytes);
  b.load_state(r);
  EXPECT_TRUE(r.at_end());
  a.step();
  b.step();
  common::StateWriter wa, wb;
  a.save_state(wa);
  b.save_state(wb);
  EXPECT_EQ(wa.bytes(), wb.bytes());
}

TEST(StateCodec, SimulatorCountOf2Pow61IsAStateError) {
  sim::TrafficSimulator a = make_sim();
  const std::string bytes = sim_state(400, a);
  for (const std::size_t at : count_offsets(a)) {
    std::string bad = bytes;
    const std::uint64_t huge = std::uint64_t{1} << 61;
    std::memcpy(bad.data() + at, &huge, sizeof(huge));
    sim::TrafficSimulator b = make_sim();
    common::StateReader r(bad);
    EXPECT_THROW(b.load_state(r), common::StateError) << "count at byte " << at;
  }
}

TEST(StateCodec, OutOfRangeVehicleEnumByteIsRejectedAtLoad) {
  sim::TrafficSimulator a = make_sim();
  const std::string bytes = sim_state(400, a);
  ASSERT_GT(a.vehicles().size(), 0u);
  const std::size_t vehicle = kVehiclesAt + 8;
  // route, type and driver-state bytes of the first vehicle
  for (const std::size_t at : {vehicle + 8, vehicle + 9, vehicle + 10 + 6 * 8}) {
    for (const unsigned char value : {7, 200}) {
      std::string bad = bytes;
      bad[at] = static_cast<char>(value);
      sim::TrafficSimulator b = make_sim();
      common::StateReader r(bad);
      EXPECT_THROW(b.load_state(r), common::StateError)
          << "byte " << at << " = " << static_cast<int>(value);
    }
  }
}

TEST(StateCodec, SimulatorRefusesSpawnTimersThatAreNotOnePerRoute) {
  sim::TrafficSimulator a = make_sim();
  std::string bytes = sim_state(50, a);
  const std::size_t spawn_at = count_offsets(a)[1];
  // Three timers instead of four: drop the last one and fix the count.
  std::uint64_t three = 3;
  std::memcpy(bytes.data() + spawn_at, &three, sizeof(three));
  bytes.erase(spawn_at + 8 + 3 * 8, 8);
  sim::TrafficSimulator b = make_sim();
  common::StateReader r(bytes);
  EXPECT_THROW(b.load_state(r), common::StateError);
}

// A traced stream's produced-window count set far past its trace used to
// restore cleanly, then make apply() size the trace from it: a
// length_error at 2^61, a 512 MB trace at 2^24.
TEST(StateCodec, TracedStreamRefusesAWindowCountItsTraceDoesNotHold) {
  serving::StreamContext base(fast_stream());
  base.set_record_trace(true);
  run(base, 420);
  ASSERT_FALSE(base.trace().empty());
  common::StateWriter w;
  base.save_state(w);
  const std::string bytes = w.take();
  // From the end: the trace records and their count, the trace flag, the
  // scorecard's 15 tallies and frames_since_decision sit after produced.
  const std::size_t produced_at =
      bytes.size() - (base.trace().size() * 24 + 8 + 1 + 15 * 8 + 4 + 8);
  std::uint64_t produced = 0;
  std::memcpy(&produced, bytes.data() + produced_at, sizeof(produced));
  ASSERT_EQ(produced, base.windows_produced()) << "offset drifted from the layout";

  for (const std::uint64_t claim : {std::uint64_t{1} << 61, std::uint64_t{1} << 24,
                                    std::uint64_t{produced + 1}}) {
    std::string bad = bytes;
    std::memcpy(bad.data() + produced_at, &claim, sizeof(claim));
    serving::StreamContext restored(fast_stream());
    common::StateReader r(bad);
    EXPECT_THROW(restored.load_state(r), common::StateError) << "produced = " << claim;
  }
}

// Counters that grow for as long as a condition lasts saturate instead
// of overflowing (undefined behaviour, which UBSan aborts on), so a state
// holding INT_MAX keeps running.
TEST(StateCodec, StreakCountersAtIntMaxKeepCounting) {
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  runtime::HealthMonitor fresh{runtime::HealthConfig{}};
  common::StateWriter w;
  fresh.save_state(w);
  std::string bytes = w.take();
  std::memcpy(bytes.data() + 2, &kMax, 4);  // missing streak, after latch + state
  std::memcpy(bytes.data() + 6, &kMax, 4);  // healthy streak
  runtime::HealthMonitor health{runtime::HealthConfig{}};
  common::StateReader r(bytes);
  health.load_state(r);
  health.frame_missing();
  health.frame_ok();
  health.frame_ok();
  EXPECT_EQ(health.state(), runtime::HealthState::FailSafe);

  serving::StreamContext base(fast_stream());
  common::StateWriter sw;
  base.save_state(sw);
  std::string stream = sw.take();
  // From the end: empty trace count, trace flag, 15 scorecard tallies.
  std::memcpy(stream.data() + stream.size() - (8 + 1 + 15 * 8 + 4), &kMax, 4);
  serving::StreamContext restored(fast_stream());
  common::StateReader sr(stream);
  restored.load_state(sr);
  run(restored, 3);
  EXPECT_EQ(restored.frames_run(), 3u);
}

TEST(StateCodec, InjectorRefusesANegativeFrameSize) {
  runtime::FaultPlan plan;
  plan.geometry.drift_px_per_frame = 0.05;
  runtime::FaultInjector a(plan, 9);
  a.set_frame_size(256, 144);
  common::StateWriter w;
  a.save_state(w);
  const std::string good = w.take();
  constexpr std::size_t kWidthAt = kRngBytes + 1 + 4 + 6 * 8 + kRngBytes;
  std::int32_t width = 0;
  std::memcpy(&width, good.data() + kWidthAt, 4);
  ASSERT_EQ(width, 256) << "offset drifted from the layout";
  for (const std::size_t at : {kWidthAt, kWidthAt + 4}) {
    std::string bad = good;
    const std::int32_t negative = std::numeric_limits<std::int32_t>::min();
    std::memcpy(bad.data() + at, &negative, 4);
    runtime::FaultInjector b(plan, 9);
    common::StateReader r(bad);
    EXPECT_THROW(b.load_state(r), common::StateError);
  }
}

}  // namespace
}  // namespace safecross
