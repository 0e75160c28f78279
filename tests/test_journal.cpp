// Write-ahead journal unit suite: framing round-trips, header handling,
// fsync policies, and the torn-tail replay contract — every shape a kill
// can leave the file in must come back as "longest valid prefix plus a
// structured account of the damage", never an exception or a phantom
// record.

#include "runtime/journal.h"

#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/state_io.h"

namespace safecross::runtime {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir()
      : path(fs::temp_directory_path() /
             ("safecross_journal_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

JournalRecord decision_record(std::uint32_t stream, std::uint64_t seq) {
  JournalRecord rec;
  rec.type = JournalRecordType::Decision;
  rec.decision.stream = stream;
  rec.decision.seq = seq;
  rec.decision.frame = 100 + seq * 8;
  rec.decision.danger_truth = (seq % 3) == 0;
  rec.decision.predicted_class = static_cast<std::int32_t>(seq % 2);
  rec.decision.prob_danger = 0.125f * static_cast<float>(seq % 8);
  rec.decision.warn = (seq % 2) == 1;
  rec.decision.source = static_cast<std::uint8_t>(seq % 4);
  rec.decision.latency_ms = 1.5 * static_cast<double>(seq);
  return rec;
}

JournalRecord switch_phase_record(JournalRecordType type, std::uint64_t id,
                                  std::uint8_t weather, std::uint64_t at) {
  JournalRecord rec;
  rec.type = type;
  rec.switch_phase.switch_id = id;
  rec.switch_phase.weather = weather;
  rec.switch_phase.mode = 2;
  rec.switch_phase.reason = type == JournalRecordType::ModelSwitchAbort ? 2 : 0;
  rec.switch_phase.wall_ms = type == JournalRecordType::ModelSwitchCommit ? 3.25 : 0.0;
  rec.switch_phase.at_decision = at;
  return rec;
}

JournalRecord recalibration_record(std::uint32_t stream, std::uint64_t frame) {
  JournalRecord rec;
  rec.type = JournalRecordType::Recalibration;
  rec.recalibration.stream = stream;
  rec.recalibration.frame = frame;
  for (std::size_t m = 0; m < rec.recalibration.image_to_grid.size(); ++m) {
    rec.recalibration.image_to_grid[m] = 0.5 * static_cast<double>(m) - 1.0;
  }
  rec.recalibration.residual_rms = 0.75;
  rec.recalibration.drift_px = 2.5;
  rec.recalibration.attempts = 3;
  return rec;
}

void expect_records_equal(const JournalRecord& got, const JournalRecord& want) {
  ASSERT_EQ(got.type, want.type);
  if (want.type == JournalRecordType::Decision) {
    EXPECT_EQ(got.decision.stream, want.decision.stream);
    EXPECT_EQ(got.decision.seq, want.decision.seq);
    EXPECT_EQ(got.decision.frame, want.decision.frame);
    EXPECT_EQ(got.decision.danger_truth, want.decision.danger_truth);
    EXPECT_EQ(got.decision.predicted_class, want.decision.predicted_class);
    EXPECT_EQ(got.decision.prob_danger, want.decision.prob_danger);
    EXPECT_EQ(got.decision.warn, want.decision.warn);
    EXPECT_EQ(got.decision.source, want.decision.source);
    EXPECT_EQ(got.decision.latency_ms, want.decision.latency_ms);
  } else if (want.type == JournalRecordType::Recalibration) {
    EXPECT_EQ(got.recalibration.stream, want.recalibration.stream);
    EXPECT_EQ(got.recalibration.frame, want.recalibration.frame);
    EXPECT_EQ(got.recalibration.image_to_grid, want.recalibration.image_to_grid);
    EXPECT_EQ(got.recalibration.residual_rms, want.recalibration.residual_rms);
    EXPECT_EQ(got.recalibration.drift_px, want.recalibration.drift_px);
    EXPECT_EQ(got.recalibration.attempts, want.recalibration.attempts);
  } else {
    EXPECT_EQ(got.switch_phase.switch_id, want.switch_phase.switch_id);
    EXPECT_EQ(got.switch_phase.weather, want.switch_phase.weather);
    EXPECT_EQ(got.switch_phase.mode, want.switch_phase.mode);
    EXPECT_EQ(got.switch_phase.reason, want.switch_phase.reason);
    EXPECT_EQ(got.switch_phase.wall_ms, want.switch_phase.wall_ms);
    EXPECT_EQ(got.switch_phase.at_decision, want.switch_phase.at_decision);
  }
}

/// A CRC-clean frame carrying journal v2's engine model-switch record
/// (type byte 2: weather, delay_ms, at_decision), which v3 retired.
std::string retired_model_switch_frame() {
  common::StateWriter payload;
  payload.u8(2);
  payload.u8(1);
  payload.f64(120.0);
  payload.u64(8);
  common::StateWriter frame;
  frame.u32(static_cast<std::uint32_t>(payload.bytes().size()));
  frame.raw(payload.bytes().data(), payload.bytes().size());
  frame.u32(common::crc32(payload.bytes()));
  return frame.take();
}

TEST(Crc32, MatchesKnownVector) {
  // The IEEE 802.3 check value for "123456789".
  EXPECT_EQ(common::crc32(std::string("123456789")), 0xCBF43926u);
  // Chaining is equivalent to one pass over the concatenation.
  EXPECT_EQ(common::crc32(std::string("6789"), common::crc32(std::string("12345"))),
            0xCBF43926u);
}

TEST(Journal, RoundTripsMixedRecords) {
  TempDir tmp;
  const fs::path path = tmp.path / "journal.wal";
  std::vector<JournalRecord> want;
  {
    Journal journal;
    journal.open(path, JournalConfig{});
    for (std::uint64_t i = 0; i < 8; ++i) {
      want.push_back(decision_record(i % 2, i));
      journal.append(want.back());
    }
    want.push_back(switch_phase_record(JournalRecordType::ModelSwitchBegin, /*id=*/1,
                                       /*weather=*/1, /*at=*/8));
    journal.append(want.back());
    want.push_back(recalibration_record(/*stream=*/1, /*frame=*/240));
    journal.append(want.back());
    want.push_back(switch_phase_record(JournalRecordType::ModelSwitchCommit, /*id=*/1,
                                       /*weather=*/1, /*at=*/10));
    journal.append(want.back());
    want.push_back(switch_phase_record(JournalRecordType::ModelSwitchAbort, /*id=*/2,
                                       /*weather=*/3, /*at=*/11));
    journal.append(want.back());
    EXPECT_EQ(journal.records_appended(), want.size());
    journal.close();
  }
  const auto report = Journal::replay(path);
  EXPECT_FALSE(report.missing);
  EXPECT_FALSE(report.bad_header);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_EQ(report.valid_bytes, report.file_bytes);
  ASSERT_EQ(report.records.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    expect_records_equal(report.records[i], want[i]);
  }
}

TEST(Journal, OpenCreatesHeaderOnlyFile) {
  TempDir tmp;
  const fs::path path = tmp.path / "fresh.wal";
  Journal journal;
  journal.open(path, JournalConfig{});
  journal.close();
  EXPECT_EQ(fs::file_size(path), Journal::kHeaderBytes);
  const auto report = Journal::replay(path);
  EXPECT_FALSE(report.missing);
  EXPECT_FALSE(report.bad_header);
  EXPECT_FALSE(report.torn_tail);
  EXPECT_TRUE(report.records.empty());
}

TEST(Journal, ReplayOfMissingFileIsFreshStart) {
  TempDir tmp;
  const auto report = Journal::replay(tmp.path / "never_written.wal");
  EXPECT_TRUE(report.missing);
  EXPECT_TRUE(report.records.empty());
  EXPECT_EQ(report.file_bytes, 0u);
}

TEST(Journal, ReplayRejectsForeignHeader) {
  TempDir tmp;
  const fs::path path = tmp.path / "garbage.wal";
  common::write_garbage(path, 64, /*seed=*/7);
  const auto report = Journal::replay(path);
  EXPECT_FALSE(report.missing);
  EXPECT_TRUE(report.bad_header);
  EXPECT_TRUE(report.records.empty());
}

TEST(Journal, RetiredModelSwitchTypeDoesNotDecode) {
  // Type byte 2 stays unassigned: a CRC-clean frame carrying it ends the
  // valid prefix like any corrupt frame.
  TempDir tmp;
  const fs::path path = tmp.path / "retired.wal";
  {
    Journal journal;
    journal.open(path, JournalConfig{});
    journal.append(decision_record(0, 0));
  }
  std::FILE* f = std::fopen(path.string().c_str(), "ab");
  ASSERT_NE(f, nullptr);
  const std::string tail = retired_model_switch_frame() + Journal::encode(decision_record(0, 1));
  ASSERT_EQ(std::fwrite(tail.data(), 1, tail.size(), f), tail.size());
  std::fclose(f);
  const auto report = Journal::replay(path);
  EXPECT_FALSE(report.bad_header);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.tail_error, "record body does not decode");
  ASSERT_EQ(report.records.size(), 1u);
  EXPECT_EQ(report.records[0].decision.seq, 0u);
}

TEST(Journal, AppendContinuesAcrossReopen) {
  TempDir tmp;
  const fs::path path = tmp.path / "journal.wal";
  {
    Journal journal;
    journal.open(path, JournalConfig{});
    for (std::uint64_t i = 0; i < 3; ++i) journal.append(decision_record(0, i));
  }
  {
    Journal journal;
    journal.open(path, JournalConfig{});
    for (std::uint64_t i = 3; i < 5; ++i) journal.append(decision_record(0, i));
  }
  const auto report = Journal::replay(path);
  ASSERT_EQ(report.records.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(report.records[i].decision.seq, i);
  }
}

TEST(Journal, AllFsyncPoliciesProduceIdenticalFiles) {
  TempDir tmp;
  std::string baseline;
  for (const FsyncPolicy policy :
       {FsyncPolicy::None, FsyncPolicy::EveryN, FsyncPolicy::Every}) {
    SCOPED_TRACE(fsync_policy_name(policy));
    const fs::path path =
        tmp.path / (std::string("j_") + fsync_policy_name(policy) + ".wal");
    JournalConfig cfg;
    cfg.fsync = policy;
    cfg.fsync_every = 2;
    Journal journal;
    journal.open(path, cfg);
    for (std::uint64_t i = 0; i < 7; ++i) journal.append(decision_record(1, i));
    journal.sync();
    journal.close();
    const std::string bytes = common::read_file(path);
    if (baseline.empty()) {
      baseline = bytes;
    } else {
      // The policy changes *when* durability is forced, never what lands.
      EXPECT_EQ(bytes, baseline);
    }
    const auto report = Journal::replay(path);
    EXPECT_EQ(report.records.size(), 7u);
    EXPECT_FALSE(report.torn_tail);
  }
}

TEST(Journal, TruncatedTailYieldsValidPrefix) {
  TempDir tmp;
  const fs::path path = tmp.path / "journal.wal";
  {
    Journal journal;
    journal.open(path, JournalConfig{});
    for (std::uint64_t i = 0; i < 5; ++i) journal.append(decision_record(0, i));
  }
  const auto full = fs::file_size(path);
  const std::string last = Journal::encode(decision_record(0, 4));
  // Cut the last record in half: a torn append.
  common::truncate_file(path, full - last.size() / 2);
  const auto report = Journal::replay(path);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_FALSE(report.tail_error.empty());
  ASSERT_EQ(report.records.size(), 4u);
  EXPECT_LT(report.valid_bytes, report.file_bytes);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(report.records[i].decision.seq, i);
  }
}

TEST(Journal, FlippedByteInTailIsDetectedAndDropped) {
  TempDir tmp;
  const fs::path path = tmp.path / "journal.wal";
  {
    Journal journal;
    journal.open(path, JournalConfig{});
    for (std::uint64_t i = 0; i < 4; ++i) journal.append(decision_record(0, i));
  }
  // Damage one byte inside the last record's payload.
  const std::string last = Journal::encode(decision_record(0, 3));
  const auto offset = fs::file_size(path) - last.size() + sizeof(std::uint32_t) + 3;
  common::flip_byte(path, offset);
  const auto report = Journal::replay(path);
  EXPECT_TRUE(report.torn_tail);
  ASSERT_EQ(report.records.size(), 3u);
  EXPECT_NE(report.tail_error.find("checksum"), std::string::npos)
      << "got: " << report.tail_error;
}

TEST(Journal, TrailingGarbageAfterValidPrefixIsDropped) {
  TempDir tmp;
  const fs::path path = tmp.path / "journal.wal";
  {
    Journal journal;
    journal.open(path, JournalConfig{});
    for (std::uint64_t i = 0; i < 3; ++i) journal.append(decision_record(0, i));
  }
  // Simulate a torn length word: three stray bytes after the last frame.
  std::FILE* f = std::fopen(path.string().c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("xyz", f);
  std::fclose(f);
  const auto report = Journal::replay(path);
  EXPECT_TRUE(report.torn_tail);
  EXPECT_EQ(report.records.size(), 3u);
  EXPECT_EQ(report.file_bytes - report.valid_bytes, 3u);
}

}  // namespace
}  // namespace safecross::runtime
