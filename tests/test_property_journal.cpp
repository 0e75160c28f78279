// Property suite for the write-ahead journal's replay contract, the
// foundation the kill–recover guarantee rests on: for a seeded random
// record sequence, truncating the file at EVERY possible byte length and
// flipping the byte at EVERY offset in the tail must each leave replay()
// returning a valid prefix of the original sequence — never throwing,
// never inventing a record that was not fully appended, and never
// dropping a record whose frame the damage did not reach.

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"
#include "runtime/journal.h"

namespace safecross::runtime {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir()
      : path(fs::temp_directory_path() /
             ("safecross_pjournal_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

JournalRecord random_record(Rng& rng) {
  JournalRecord rec;
  const double kind = rng.uniform();
  if (kind < 0.15) {
    constexpr JournalRecordType kPhases[] = {JournalRecordType::ModelSwitchBegin,
                                             JournalRecordType::ModelSwitchCommit,
                                             JournalRecordType::ModelSwitchAbort};
    rec.type = kPhases[rng.uniform_int(3)];
    rec.switch_phase.switch_id = rng.next_u64() % 1000;
    rec.switch_phase.weather = static_cast<std::uint8_t>(rng.uniform_int(5));
    rec.switch_phase.mode = static_cast<std::uint8_t>(rng.uniform_int(3));
    rec.switch_phase.reason = static_cast<std::uint8_t>(rng.uniform_int(3));
    rec.switch_phase.wall_ms = rng.uniform(0.0, 500.0);
    rec.switch_phase.at_decision = rng.next_u64() % 10000;
    return rec;
  }
  if (kind < 0.25) {
    rec.type = JournalRecordType::Recalibration;
    rec.recalibration.stream = static_cast<std::uint32_t>(rng.uniform_int(8));
    rec.recalibration.frame = rng.next_u64() % 100000;
    for (double& v : rec.recalibration.image_to_grid) v = rng.uniform(-2.0, 2.0);
    rec.recalibration.residual_rms = rng.uniform(0.0, 1.0);
    rec.recalibration.drift_px = rng.uniform(0.0, 8.0);
    rec.recalibration.attempts = static_cast<std::uint32_t>(rng.uniform_int(4));
    return rec;
  }
  rec.type = JournalRecordType::Decision;
  rec.decision.stream = static_cast<std::uint32_t>(rng.uniform_int(8));
  rec.decision.seq = rng.next_u64() % 100000;
  rec.decision.frame = rng.next_u64() % 100000;
  rec.decision.danger_truth = rng.uniform() < 0.5;
  rec.decision.predicted_class = static_cast<std::int32_t>(rng.uniform_int(2));
  rec.decision.prob_danger = static_cast<float>(rng.uniform());
  rec.decision.warn = rng.uniform() < 0.5;
  rec.decision.source = static_cast<std::uint8_t>(rng.uniform_int(6));
  rec.decision.latency_ms = rng.uniform(0.0, 50.0);
  return rec;
}

bool records_equal(const JournalRecord& a, const JournalRecord& b) {
  if (a.type != b.type) return false;
  if (a.type == JournalRecordType::Decision) {
    return a.decision.stream == b.decision.stream && a.decision.seq == b.decision.seq &&
           a.decision.frame == b.decision.frame &&
           a.decision.danger_truth == b.decision.danger_truth &&
           a.decision.predicted_class == b.decision.predicted_class &&
           a.decision.prob_danger == b.decision.prob_danger &&
           a.decision.warn == b.decision.warn && a.decision.source == b.decision.source &&
           a.decision.latency_ms == b.decision.latency_ms;
  }
  if (a.type == JournalRecordType::Recalibration) {
    return a.recalibration.stream == b.recalibration.stream &&
           a.recalibration.frame == b.recalibration.frame &&
           a.recalibration.image_to_grid == b.recalibration.image_to_grid &&
           a.recalibration.residual_rms == b.recalibration.residual_rms &&
           a.recalibration.drift_px == b.recalibration.drift_px &&
           a.recalibration.attempts == b.recalibration.attempts;
  }
  return a.switch_phase.switch_id == b.switch_phase.switch_id &&
         a.switch_phase.weather == b.switch_phase.weather &&
         a.switch_phase.mode == b.switch_phase.mode &&
         a.switch_phase.reason == b.switch_phase.reason &&
         a.switch_phase.wall_ms == b.switch_phase.wall_ms &&
         a.switch_phase.at_decision == b.switch_phase.at_decision;
}

/// The invariant every damaged replay must satisfy: the result is a
/// prefix of `want` (no phantom, no reorder, no mutation) and at least
/// `intact` records long (no record the damage did not reach may vanish).
void expect_valid_prefix(const Journal::ReplayReport& report,
                         const std::vector<JournalRecord>& want, std::size_t intact) {
  ASSERT_LE(report.records.size(), want.size()) << "replay invented a record";
  ASSERT_GE(report.records.size(), intact) << "replay dropped an undamaged record";
  for (std::size_t i = 0; i < report.records.size(); ++i) {
    ASSERT_TRUE(records_equal(report.records[i], want[i]))
        << "record " << i << " mutated in replay";
  }
}

struct JournalImage {
  std::vector<JournalRecord> records;
  std::string bytes;                 // full on-disk image (header + frames)
  std::vector<std::size_t> bounds;   // byte offset where each frame ends
};

/// Build a journal through the real append path, then read the image back
/// and compute each frame's end offset from encode() (the same function
/// append() uses, pinned by the round-trip suite).
JournalImage build_journal(const fs::path& path, std::uint64_t seed,
                           std::size_t count) {
  JournalImage image;
  Rng rng(seed);
  Journal journal;
  JournalConfig cfg;
  cfg.fsync = FsyncPolicy::None;  // durability is irrelevant in-process
  journal.open(path, cfg);
  std::size_t offset = Journal::kHeaderBytes;
  for (std::size_t i = 0; i < count; ++i) {
    image.records.push_back(random_record(rng));
    journal.append(image.records.back());
    offset += Journal::encode(image.records.back()).size();
    image.bounds.push_back(offset);
  }
  journal.close();
  image.bytes = common::read_file(path);
  EXPECT_EQ(image.bytes.size(), offset);
  return image;
}

void write_bytes(const fs::path& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Frames whose end offset lies at or before `undamaged` bytes survive
/// any damage from `undamaged` onward.
std::size_t frames_before(const JournalImage& image, std::size_t undamaged) {
  std::size_t n = 0;
  while (n < image.bounds.size() && image.bounds[n] <= undamaged) ++n;
  return n;
}

TEST(JournalProperty, TruncationAtEveryLengthYieldsValidPrefix) {
  TempDir tmp;
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const fs::path path = tmp.path / ("trunc_" + std::to_string(seed) + ".wal");
    const JournalImage image = build_journal(path, seed, /*count=*/10);
    const fs::path cut = tmp.path / "cut.wal";
    for (std::size_t keep = 0; keep <= image.bytes.size(); ++keep) {
      write_bytes(cut, image.bytes.substr(0, keep));
      const auto report = Journal::replay(cut);
      if (keep < Journal::kHeaderBytes) {
        // Not even a header survived: a fresh-start or bad-header report,
        // but still no records and no exception.
        EXPECT_TRUE(report.records.empty()) << "keep=" << keep;
        continue;
      }
      const std::size_t intact = frames_before(image, keep);
      SCOPED_TRACE("keep " + std::to_string(keep));
      expect_valid_prefix(report, image.records, intact);
      // Truncation exactly on a frame boundary is indistinguishable from
      // a clean shutdown: exactly the surviving records, no torn tail.
      if (keep == Journal::kHeaderBytes ||
          (intact > 0 && image.bounds[intact - 1] == keep)) {
        EXPECT_EQ(report.records.size(), intact);
        EXPECT_FALSE(report.torn_tail);
      } else {
        EXPECT_TRUE(report.torn_tail);
        EXPECT_EQ(report.records.size(), intact)
            << "a torn frame must not yield a record";
      }
    }
  }
}

TEST(JournalProperty, ByteFlipAtEveryTailOffsetYieldsValidPrefix) {
  TempDir tmp;
  for (std::uint64_t seed : {55u, 66u, 77u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const fs::path path = tmp.path / ("flip_" + std::to_string(seed) + ".wal");
    const JournalImage image = build_journal(path, seed, /*count=*/8);
    // The "tail" under attack: everything after the first third of the
    // frames — replay must keep at least the frames before the flip.
    const std::size_t tail_start =
        image.bounds.empty() ? Journal::kHeaderBytes : image.bounds[image.bounds.size() / 3];
    const fs::path hit = tmp.path / "hit.wal";
    for (std::size_t offset = tail_start; offset < image.bytes.size(); ++offset) {
      std::string damaged = image.bytes;
      damaged[offset] = static_cast<char>(~static_cast<unsigned char>(damaged[offset]));
      write_bytes(hit, damaged);
      const auto report = Journal::replay(hit);
      SCOPED_TRACE("offset " + std::to_string(offset));
      // Every frame fully before the flipped byte survives; nothing past
      // the first damaged frame is ever returned (CRC gate), so the
      // result is a prefix and at least `intact` long.
      const std::size_t intact = frames_before(image, offset);
      expect_valid_prefix(report, image.records, intact);
      EXPECT_EQ(report.records.size(), intact)
          << "the flipped frame (or one after it) leaked into the replay";
      EXPECT_TRUE(report.torn_tail);
      EXPECT_FALSE(report.tail_error.empty());
    }
  }
}

TEST(JournalProperty, HeaderDamageNeverYieldsRecords) {
  TempDir tmp;
  const fs::path path = tmp.path / "hdr.wal";
  const JournalImage image = build_journal(path, /*seed=*/88, /*count=*/5);
  const fs::path hit = tmp.path / "hdr_hit.wal";
  for (std::size_t offset = 0; offset < Journal::kHeaderBytes; ++offset) {
    std::string damaged = image.bytes;
    damaged[offset] = static_cast<char>(~static_cast<unsigned char>(damaged[offset]));
    write_bytes(hit, damaged);
    const auto report = Journal::replay(hit);
    SCOPED_TRACE("offset " + std::to_string(offset));
    EXPECT_TRUE(report.bad_header);
    EXPECT_TRUE(report.records.empty())
        << "records must never be trusted behind a foreign header";
  }
}

}  // namespace
}  // namespace safecross::runtime
