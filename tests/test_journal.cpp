// Write-ahead journal unit suite: framing round-trips, header handling,
// fsync policies, and the torn-tail replay contract — every shape a kill
// can leave the file in must come back as "longest valid prefix plus a
// structured account of the damage", never an exception or a phantom
// record.

#include "runtime/journal.h"

#include <filesystem>
#include <span>
#include <string>
#include <vector>

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
  std::vector<JournalRecord> records;
  for (std::uint64_t i = 0; i < 7; ++i) records.push_back(decision_record(1, i));
  const std::span<const JournalRecord> all(records);
  std::string baseline;
  for (const FsyncPolicy policy :
       {FsyncPolicy::None, FsyncPolicy::EveryN, FsyncPolicy::Every}) {
    for (const bool grouped : {false, true}) {
      SCOPED_TRACE(std::string(fsync_policy_name(policy)) +
                   (grouped ? " grouped" : " one by one"));
      const fs::path path = tmp.path / (std::string("j_") + fsync_policy_name(policy) +
                                        (grouped ? "_grouped" : "") + ".wal");
      JournalConfig cfg;
      cfg.fsync = policy;
      cfg.fsync_every = 3;
      Journal journal;
      journal.open(path, cfg);
      if (grouped) {
        // Groups of 3, 0, 1 and 3: one crosses fsync_every, one lands on it.
        journal.append(all.subspan(0, 3));
        journal.append(all.subspan(3, 0));
        journal.append(all.subspan(3, 1));
        journal.append(all.subspan(4, 3));
      } else {
        for (const JournalRecord& rec : records) journal.append(rec);
      }
      EXPECT_EQ(journal.records_appended(), records.size());
      journal.sync();
      journal.close();
      const std::string bytes = common::read_file(path);
      if (baseline.empty()) {
        baseline = bytes;
      } else {
        // The policy and the grouping change *when* durability is forced,
        // never what lands.
        EXPECT_EQ(bytes, baseline);
      }
      const auto report = Journal::replay(path);
      EXPECT_EQ(report.records.size(), records.size());
      EXPECT_FALSE(report.torn_tail);
    }
  }
}

TEST(Journal, EmptyGroupWritesNothingAndDoesNotSync) {
  TempDir tmp;
  const fs::path path = tmp.path / "journal.wal";
  Journal journal;
  journal.open(path, JournalConfig{});
  const std::uint64_t header_syncs = journal.syncs();
  EXPECT_EQ(header_syncs, 1u) << "a fresh file fsyncs its header";
  journal.append(std::span<const JournalRecord>{});
  EXPECT_EQ(journal.syncs(), header_syncs);
  EXPECT_EQ(journal.records_appended(), 0u);
  journal.close();
  EXPECT_EQ(fs::file_size(path), Journal::kHeaderBytes);
}

TEST(Journal, SyncsCountOnePerGroupPerPolicy) {
  TempDir tmp;
  std::vector<JournalRecord> records;
  for (std::uint64_t i = 0; i < 10; ++i) records.push_back(decision_record(0, i));
  const std::span<const JournalRecord> all(records);
  struct Case {
    FsyncPolicy policy;
    std::vector<std::uint64_t> want;  // syncs() after each group below
  };
  // Groups of 5, 2, 2, 1: Every fsyncs once per group; EveryN(3) only at
  // the end of a group that reaches 3 records since the last fsync
  // (5 → yes, 2 → no, 2+2 → yes, 1 → no); None never.
  for (const Case& c : {Case{FsyncPolicy::Every, {2, 3, 4, 5}},
                        Case{FsyncPolicy::EveryN, {2, 2, 3, 3}},
                        Case{FsyncPolicy::None, {1, 1, 1, 1}}}) {
    SCOPED_TRACE(fsync_policy_name(c.policy));
    JournalConfig cfg;
    cfg.fsync = c.policy;
    cfg.fsync_every = 3;
    Journal journal;
    journal.open(tmp.path / (std::string("s_") + fsync_policy_name(c.policy) + ".wal"), cfg);
    ASSERT_EQ(journal.syncs(), 1u);  // the header, whatever the policy
    journal.append(all.subspan(0, 5));
    EXPECT_EQ(journal.syncs(), c.want[0]);
    journal.append(all.subspan(5, 2));
    EXPECT_EQ(journal.syncs(), c.want[1]);
    journal.append(all.subspan(7, 2));
    EXPECT_EQ(journal.syncs(), c.want[2]);
    journal.append(records[9]);
    EXPECT_EQ(journal.syncs(), c.want[3]);
    journal.sync();
    EXPECT_EQ(journal.syncs(), c.want[3] + 1);
  }
}

/// Append `prefix` one by one, then `group` — as one group or record by
/// record — with `point` armed at its `nth` hit; return the file bytes.
std::string killed_journal_bytes(const fs::path& path, CrashPoint point, std::size_t nth,
                                 std::span<const JournalRecord> prefix,
                                 std::span<const JournalRecord> group, bool grouped) {
  CrashInjector injector;
  injector.arm(point, nth);
  Journal journal;
  journal.open(path, JournalConfig{}, &injector);
  bool killed = false;
  try {
    for (const JournalRecord& rec : prefix) journal.append(rec);
    if (grouped) {
      journal.append(group);
    } else {
      for (const JournalRecord& rec : group) journal.append(rec);
    }
  } catch (const CrashInjected& crash) {
    killed = true;
    EXPECT_EQ(crash.point, point);
    EXPECT_EQ(crash.hit, nth);
  }
  EXPECT_TRUE(killed) << "the armed kill never fired";
  journal.close();
  return common::read_file(path);
}

// A kill at record j of a group leaves the bytes sequential appends would
// have left: records < j, plus half of j for Mid, plus all of j for After.
TEST(Journal, GroupCrashPointsLeaveTheSequentialBytes) {
  TempDir tmp;
  const std::vector<JournalRecord> prefix = {decision_record(0, 0), decision_record(1, 0)};
  std::vector<JournalRecord> group;
  for (std::uint64_t i = 1; i <= 5; ++i) group.push_back(decision_record(i % 2, i));
  for (const CrashPoint point : {CrashPoint::BeforeJournalAppend,
                                 CrashPoint::MidJournalAppend,
                                 CrashPoint::AfterJournalAppend}) {
    for (const std::size_t j : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(crash_point_name(point)) + " at group record " +
                   std::to_string(j));
      // Hits count per record across groups: the prefix took two.
      const std::size_t nth = prefix.size() + j + 1;
      const fs::path seq_path = tmp.path / "sequential.wal";
      const fs::path group_path = tmp.path / "grouped.wal";
      fs::remove(seq_path);
      fs::remove(group_path);
      const std::string sequential =
          killed_journal_bytes(seq_path, point, nth, prefix, group, /*grouped=*/false);
      const std::string grouped =
          killed_journal_bytes(group_path, point, nth, prefix, group, /*grouped=*/true);
      EXPECT_EQ(grouped, sequential);

      const auto seq_report = Journal::replay(seq_path);
      const auto group_report = Journal::replay(group_path);
      const std::size_t durable =
          prefix.size() + j + (point == CrashPoint::AfterJournalAppend ? 1 : 0);
      ASSERT_EQ(group_report.records.size(), durable);
      ASSERT_EQ(seq_report.records.size(), durable);
      for (std::size_t r = 0; r < durable; ++r) {
        expect_records_equal(group_report.records[r], seq_report.records[r]);
      }
      EXPECT_EQ(group_report.torn_tail, seq_report.torn_tail);
      EXPECT_EQ(group_report.torn_tail, point == CrashPoint::MidJournalAppend);
      EXPECT_EQ(group_report.valid_bytes, seq_report.valid_bytes);
    }
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
