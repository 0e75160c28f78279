// Seeded mutation properties for the state decoders: damaged bytes that
// still pass their container's CRC (the checksum is recomputed, or the
// payload is handed to the decoder directly) must be refused with a
// typed error or decode into something that keeps working.
//   * StreamContext snapshots: load_state throws StateError, or the
//     restored stream survives 200 further ticks.
//   * Journal frames: replay keeps the valid prefix and never throws; a
//     record it does accept re-encodes to exactly the bytes it read.

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/state_io.h"
#include "runtime/journal.h"
#include "serving/stream.h"
#include "state_scenarios.h"

namespace safecross {
namespace {

namespace fs = std::filesystem;

template <class T>
void put(std::string& bytes, std::size_t at, T v) {
  if (at + sizeof(T) > bytes.size()) at = bytes.size() - sizeof(T);
  std::memcpy(bytes.data() + at, &v, sizeof(T));
}

/// One seeded damage at a byte offset in [lo, hi): a flipped bit, an odd
/// byte, or an 8- or 4-byte word set to a value that stresses counts,
/// enums, indices and floats.
std::string mutate(std::string bytes, std::size_t lo, std::size_t hi, Rng& rng) {
  const std::size_t at = lo + static_cast<std::size_t>(rng.uniform_int(hi - lo));
  switch (rng.uniform_int(std::uint64_t{4})) {
    case 0:
      bytes[at] = static_cast<char>(bytes[at] ^ (1 << rng.uniform_int(std::uint64_t{8})));
      break;
    case 1: {
      const unsigned char values[] = {0, 1, 2, 7, 200, 255};
      bytes[at] = static_cast<char>(values[rng.uniform_int(std::uint64_t{6})]);
      break;
    }
    case 2: {
      const std::uint64_t nan = std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN());
      const std::uint64_t inf = std::bit_cast<std::uint64_t>(std::numeric_limits<double>::infinity());
      const std::uint64_t big = std::bit_cast<std::uint64_t>(-1e300);
      const std::uint64_t values[] = {0, 1, std::uint64_t{1} << 61, ~std::uint64_t{0},
                                      std::uint64_t{1} << 32, nan, inf, big, rng.next_u64()};
      put(bytes, at, values[rng.uniform_int(std::uint64_t{9})]);
      break;
    }
    default: {
      const std::int32_t values[] = {0, -1, std::numeric_limits<std::int32_t>::max(),
                                     std::numeric_limits<std::int32_t>::min(), 1 << 20,
                                     static_cast<std::int32_t>(rng.next_u64())};
      put(bytes, at, values[rng.uniform_int(std::uint64_t{6})]);
      break;
    }
  }
  return bytes;
}

struct Scenario {
  const char* name;
  serving::StreamConfig config;
  int frames;  // ticks before the snapshot is cut: inside a decision burst,
               // so the 200 ticks after a restore decide and apply too
  int trials;
};

/// Cut a snapshot of the scenario's stream, then restore `trials` seeded
/// mutations of it: each must be refused with StateError or survive 200
/// further ticks. Returns how many were refused.
int refused_stream_mutations(const Scenario& s) {
  constexpr int kTicksAfter = 200;
  // The layout's small fields sit at the two ends: the simulator and the
  // collector's head first, then after the window's pixels the flags,
  // counters, health, injector, recalibration loop, scorecard and trace.
  constexpr std::size_t kHead = 1024;
  constexpr std::size_t kTail = 2048;
  serving::StreamContext base(s.config);
  base.set_record_trace(true);
  testing::run(base, s.frames);
  common::StateWriter writer;
  base.save_state(writer);
  const std::string bytes = writer.take();
  EXPECT_GT(bytes.size(), kHead + kTail);
  if (bytes.size() <= kHead + kTail) return 0;

  Rng rng(0x5747E000u + static_cast<std::uint64_t>(s.frames));
  int refused = 0;
  for (int t = 0; t < s.trials; ++t) {
    std::size_t lo = 0, hi = kHead;
    if (t % 2 == 1) {
      lo = bytes.size() - kTail;
      hi = bytes.size();
    }
    if (t % 8 == 7) lo = 0;  // now and then anywhere, pixels included
    const std::string bad = mutate(bytes, lo, hi, rng);
    serving::StreamContext ctx(s.config);
    try {
      common::StateReader r(bad);
      ctx.load_state(r);
    } catch (const common::StateError&) {
      ++refused;
      continue;
    }
    try {
      testing::run(ctx, kTicksAfter);
    } catch (const std::exception& e) {
      ADD_FAILURE() << s.name << " trial " << t << ": restored state threw after load: "
                    << e.what();
    }
  }
  EXPECT_LT(refused, s.trials) << s.name << ": every mutation was refused";
  return refused;
}

// One case per scenario, so ctest can run them side by side.
TEST(StateMutation, FastStreamSnapshotsAreRefusedOrKeepRunning) {
  EXPECT_GT(refused_stream_mutations({"fast", testing::fast_stream(), 380, 96}), 0)
      << "no mutation was refused; the property is vacuous";
}

TEST(StateMutation, FaultyStreamSnapshotsAreRefusedOrKeepRunning) {
  EXPECT_GT(refused_stream_mutations({"faulty", testing::faulty_stream(), 340, 96}), 0)
      << "no mutation was refused; the property is vacuous";
}

TEST(StateMutation, FullVPStreamSnapshotsAreRefusedOrKeepRunning) {
  EXPECT_GT(refused_stream_mutations({"fullvp", testing::fullvp_stream(), 240, 8}), 0)
      << "no mutation was refused; the property is vacuous";
}

std::vector<runtime::JournalRecord> journal_records() {
  std::vector<runtime::JournalRecord> out;
  for (std::uint32_t i = 0; i < 3; ++i) {
    runtime::JournalRecord d;
    d.type = runtime::JournalRecordType::Decision;
    d.decision = {i, 40 + i, 900 + 8 * i, i % 2 == 0, static_cast<int>(i % 2),
                  0.25f * static_cast<float>(i), i % 2 == 0, static_cast<std::uint8_t>(i), 1.25, 3};
    out.push_back(d);
  }
  runtime::JournalRecord c;
  c.type = runtime::JournalRecordType::Recalibration;
  c.recalibration = {2, 480, {1.0, 0.02, -1.5, -0.02, 1.0, 2.0, 0.0, 0.0, 1.0}, 0.25, 1.8, 2};
  out.push_back(c);
  for (runtime::JournalRecordType t :
       {runtime::JournalRecordType::ModelSwitchBegin, runtime::JournalRecordType::ModelSwitchCommit,
        runtime::JournalRecordType::ModelSwitchAbort}) {
    runtime::JournalRecord p;
    p.type = t;
    p.switch_phase = {11, 2, 1, 0, 7.5, 3};
    out.push_back(p);
  }
  return out;
}

std::string journal_header() {
  common::StateWriter w;
  w.u32(runtime::Journal::kMagic);
  w.u32(runtime::Journal::kVersion);
  return w.take();
}

TEST(StateMutation, JournalFramesAreDroppedOrReencodeExactly) {
  const std::vector<runtime::JournalRecord> records = journal_records();
  std::vector<std::string> frames;
  for (const runtime::JournalRecord& rec : records) frames.push_back(runtime::Journal::encode(rec));

  const fs::path path =
      fs::temp_directory_path() / ("safecross_mutate_journal_" + std::to_string(::getpid()));
  Rng rng(0x10E4A1u);
  int dropped = 0, accepted = 0;
  for (int t = 0; t < 400; ++t) {
    const std::size_t k = static_cast<std::size_t>(t) % frames.size();
    // Damage the payload only, then re-frame it with a fresh CRC so the
    // damage reaches the record decoder.
    const std::string& frame = frames[k];
    std::string payload = frame.substr(4, frame.size() - 8);
    payload = mutate(payload, 0, payload.size(), rng);
    common::StateWriter re;
    re.u32(static_cast<std::uint32_t>(payload.size()));
    re.raw(payload.data(), payload.size());
    re.u32(common::crc32(payload));
    const std::string bad_frame = re.take();

    std::string file = journal_header();
    for (std::size_t i = 0; i < frames.size(); ++i) file += i == k ? bad_frame : frames[i];
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(file.data(), static_cast<std::streamsize>(file.size()));
    }
    runtime::Journal::ReplayReport report;
    ASSERT_NO_THROW(report = runtime::Journal::replay(path)) << "trial " << t;
    if (report.records.size() == k) {
      ++dropped;
      EXPECT_EQ(report.tail_error, "record body does not decode") << "trial " << t;
      EXPECT_TRUE(report.torn_tail);
      continue;
    }
    ++accepted;
    ASSERT_EQ(report.records.size(), frames.size()) << "trial " << t << ": " << report.tail_error;
    EXPECT_EQ(runtime::Journal::encode(report.records[k]), bad_frame)
        << "trial " << t << ": an accepted record does not re-encode to its bytes";
  }
  fs::remove(path);
  EXPECT_GT(dropped, 0);
  EXPECT_GT(accepted, 0);
}

}  // namespace
}  // namespace safecross
