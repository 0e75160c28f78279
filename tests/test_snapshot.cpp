// SnapshotStore unit suite: atomic publish (temp + fsync + rename),
// monotonic generation sequencing across reopen, pruning, and the
// newest-valid fallback walk — including the on-disk states a kill at
// each snapshot crash point leaves behind. Also: the stream-state
// decoders refuse untrusted element counts larger than their payload.

#include "serving/snapshot.h"

#include <atomic>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/state_io.h"
#include "serving/stream.h"

namespace safecross::serving {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  fs::path path;
  TempDir()
      : path(fs::temp_directory_path() /
             ("safecross_snap_" + std::to_string(::getpid()))) {
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
};

std::vector<fs::path> snapshot_files(const fs::path& dir) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".bin") out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool has_tmp_files(const fs::path& dir) {
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".tmp") return true;
  }
  return false;
}

TEST(SnapshotStore, WriteThenLoadRoundTrips) {
  TempDir tmp;
  SnapshotStore store(tmp.path, /*keep=*/2);
  EXPECT_EQ(store.write("payload one"), 1u);
  const auto loaded = SnapshotStore::load_newest_valid(tmp.path);
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.payload, "payload one");
  EXPECT_TRUE(loaded.rejected.empty());
  EXPECT_FALSE(has_tmp_files(tmp.path));
}

TEST(SnapshotStore, NewestGenerationWinsAndOldOnesPrune) {
  TempDir tmp;
  SnapshotStore store(tmp.path, /*keep=*/2);
  for (int i = 1; i <= 5; ++i) store.write("gen " + std::to_string(i));
  const auto loaded = SnapshotStore::load_newest_valid(tmp.path);
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.generation, 5u);
  EXPECT_EQ(loaded.payload, "gen 5");
  // keep=2: only generations 4 and 5 survive the prunes.
  const auto files = snapshot_files(tmp.path);
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], SnapshotStore::generation_path(tmp.path, 4));
  EXPECT_EQ(files[1], SnapshotStore::generation_path(tmp.path, 5));
}

TEST(SnapshotStore, SequencingContinuesAcrossReopen) {
  TempDir tmp;
  {
    SnapshotStore store(tmp.path, /*keep=*/4);
    store.write("a");
    store.write("b");
  }
  SnapshotStore reopened(tmp.path, /*keep=*/4);
  EXPECT_EQ(reopened.next_generation(), 3u);
  EXPECT_EQ(reopened.write("c"), 3u);
  EXPECT_EQ(SnapshotStore::load_newest_valid(tmp.path).payload, "c");
}

TEST(SnapshotStore, MissingOrEmptyDirIsNotFound) {
  TempDir tmp;
  EXPECT_FALSE(SnapshotStore::load_newest_valid(tmp.path / "never_made").found);
  fs::create_directories(tmp.path);
  const auto loaded = SnapshotStore::load_newest_valid(tmp.path);
  EXPECT_FALSE(loaded.found);
  EXPECT_TRUE(loaded.rejected.empty());
}

TEST(SnapshotStore, CorruptNewestFallsBackToPreviousGeneration) {
  TempDir tmp;
  SnapshotStore store(tmp.path, /*keep=*/3);
  store.write("good old");
  store.write("doomed new");
  const fs::path newest = SnapshotStore::generation_path(tmp.path, 2);
  common::flip_byte(newest, fs::file_size(newest) / 2);
  const auto loaded = SnapshotStore::load_newest_valid(tmp.path);
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.payload, "good old");
  ASSERT_EQ(loaded.rejected.size(), 1u);
  EXPECT_NE(loaded.rejected[0].find("checksum"), std::string::npos)
      << "got: " << loaded.rejected[0];
}

TEST(SnapshotStore, RefusedPayloadFallsBackWithItsReason) {
  TempDir tmp;
  SnapshotStore store(tmp.path, /*keep=*/3);
  store.write("good old");
  store.write("frame-valid but undecodable");
  std::vector<std::string> checked;
  const auto loaded =
      SnapshotStore::load_newest_valid(tmp.path, [&](const std::string& payload) {
        checked.push_back(payload);
        return payload == "good old" ? std::string() : std::string("bad enum");
      });
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.generation, 1u);
  EXPECT_EQ(loaded.payload, "good old");
  ASSERT_EQ(loaded.rejected.size(), 1u);
  EXPECT_EQ(loaded.rejected[0],
            SnapshotStore::generation_path(tmp.path, 2).filename().string() + ": payload: bad enum");
  EXPECT_EQ(checked, (std::vector<std::string>{"frame-valid but undecodable", "good old"}));
}

TEST(SnapshotStore, EveryGenerationCorruptIsNotFoundWithReasons) {
  TempDir tmp;
  SnapshotStore store(tmp.path, /*keep=*/3);
  store.write("one");
  store.write("two");
  store.write("three");
  common::corrupt_magic(SnapshotStore::generation_path(tmp.path, 1));
  common::truncate_file(SnapshotStore::generation_path(tmp.path, 2), 6);
  common::write_garbage(SnapshotStore::generation_path(tmp.path, 3), 128, /*seed=*/9);
  const auto loaded = SnapshotStore::load_newest_valid(tmp.path);
  EXPECT_FALSE(loaded.found);
  ASSERT_EQ(loaded.rejected.size(), 3u);
  for (const std::string& reason : loaded.rejected) {
    EXPECT_NE(reason.find(": "), std::string::npos) << "reason lacks file tag: " << reason;
  }
}

TEST(SnapshotStore, GenerationNameMismatchRejected) {
  TempDir tmp;
  SnapshotStore store(tmp.path, /*keep=*/3);
  store.write("honest");
  // An operator copying generation files around must not be able to make
  // an old snapshot impersonate a newer one: the embedded generation is
  // checked against the filename.
  fs::copy_file(SnapshotStore::generation_path(tmp.path, 1),
                SnapshotStore::generation_path(tmp.path, 7));
  const auto loaded = SnapshotStore::load_newest_valid(tmp.path);
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.generation, 1u);
  ASSERT_EQ(loaded.rejected.size(), 1u);
  EXPECT_NE(loaded.rejected[0].find("generation"), std::string::npos);
}

TEST(SnapshotStore, MidWriteKillLeavesPreviousGenerationIntact) {
  TempDir tmp;
  SnapshotStore store(tmp.path, /*keep=*/2);
  store.write("survivor");
  runtime::CrashInjector injector;
  injector.arm(runtime::CrashPoint::MidSnapshotWrite, 1);
  bool crashed = false;
  try {
    store.write("never lands", &injector);
  } catch (const runtime::CrashInjected& kill) {
    crashed = true;
    EXPECT_EQ(kill.point, runtime::CrashPoint::MidSnapshotWrite);
  }
  ASSERT_TRUE(crashed);
  // The half-written temp file is debris; generation 2 never published.
  EXPECT_TRUE(has_tmp_files(tmp.path));
  EXPECT_FALSE(fs::exists(SnapshotStore::generation_path(tmp.path, 2)));
  const auto loaded = SnapshotStore::load_newest_valid(tmp.path);
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.payload, "survivor");
  EXPECT_TRUE(loaded.rejected.empty()) << "a .tmp must not count as a generation";
  // The next incarnation's store sweeps the debris and reuses the slot.
  SnapshotStore reopened(tmp.path, /*keep=*/2);
  EXPECT_FALSE(has_tmp_files(tmp.path));
  EXPECT_EQ(reopened.next_generation(), 2u);
}

TEST(SnapshotStore, KillBeforeRenameLeavesCompleteTmpUnpublished) {
  TempDir tmp;
  SnapshotStore store(tmp.path, /*keep=*/2);
  store.write("survivor");
  runtime::CrashInjector injector;
  injector.arm(runtime::CrashPoint::BeforeSnapshotRename, 1);
  EXPECT_THROW(store.write("complete but unnamed", &injector), runtime::CrashInjected);
  EXPECT_TRUE(has_tmp_files(tmp.path));
  EXPECT_FALSE(fs::exists(SnapshotStore::generation_path(tmp.path, 2)));
  EXPECT_EQ(SnapshotStore::load_newest_valid(tmp.path).payload, "survivor");
}

TEST(SnapshotStore, KillAfterRenameHasPublishedTheGeneration) {
  TempDir tmp;
  SnapshotStore store(tmp.path, /*keep=*/1);
  store.write("old");
  runtime::CrashInjector injector;
  injector.arm(runtime::CrashPoint::AfterSnapshotRename, 1);
  EXPECT_THROW(store.write("landed", &injector), runtime::CrashInjected);
  // Rename happened, prune did not: both generations on disk, newest wins.
  const auto loaded = SnapshotStore::load_newest_valid(tmp.path);
  ASSERT_TRUE(loaded.found);
  EXPECT_EQ(loaded.generation, 2u);
  EXPECT_EQ(loaded.payload, "landed");
  EXPECT_TRUE(fs::exists(SnapshotStore::generation_path(tmp.path, 1)))
      << "pruning must never run before the new generation is durable";
}

// The failover race: a fleet controller recovering one dead shard walks
// that shard's generations while other incarnations keep publishing (and
// pruning) their own snapshots — and, in the restart-in-place case, the
// very same dir can be re-written while an observability reader walks
// it. A reader overlapping prune must always come back with an intact
// generation and never a torn or partially pruned view.
TEST(SnapshotStore, PruneConcurrentWithReaderWalkAlwaysFindsIntactGeneration) {
  TempDir tmp;
  constexpr std::size_t kWrites = 40;
  // keep = 4: a generation a reader just scanned survives four more
  // fsynced publishes — far longer than one directory walk.
  SnapshotStore store(tmp.path, /*keep=*/4);
  store.write("gen payload 0");  // the walk never races an empty dir

  std::atomic<bool> done{false};
  std::atomic<std::size_t> reads{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto loaded = SnapshotStore::load_newest_valid(tmp.path);
      ASSERT_TRUE(loaded.found) << "prune ran ahead of the reader's whole walk";
      // Whatever generation won the walk, it must be one this test
      // published, intact end to end — CRC already vouched for it, the
      // payload shape vouches for the read being complete.
      EXPECT_EQ(loaded.payload.rfind("gen payload ", 0), 0u);
      EXPECT_LE(loaded.payload.size(), sizeof("gen payload ") + 2);
      reads.fetch_add(1, std::memory_order_relaxed);
    }
  });
  for (std::size_t i = 1; i <= kWrites; ++i) {
    store.write("gen payload " + std::to_string(i));
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_GT(reads.load(), 0u) << "the reader never overlapped the writer";
  const auto last = SnapshotStore::load_newest_valid(tmp.path);
  ASSERT_TRUE(last.found);
  EXPECT_EQ(last.payload, "gen payload " + std::to_string(kWrites));
}

/// Overwrite the u64 that ends `bytes` — the element count of an empty
/// trailing list — with a claim of 2^40 entries.
void claim_huge_trailing_count(std::string& bytes) {
  const std::uint64_t huge = std::uint64_t{1} << 40;
  std::memcpy(bytes.data() + bytes.size() - sizeof(huge), &huge, sizeof(huge));
}

TEST(StreamStateDecode, RejectsATraceCountLargerThanThePayload) {
  StreamConfig cfg;
  cfg.sim_seed = 41;
  cfg.collector_seed = 42;
  StreamContext ctx(cfg);
  ctx.set_record_trace(true);
  for (int i = 0; i < 8; ++i) ctx.tick();
  common::StateWriter w;
  ctx.save_state(w);  // ends with the (empty) verdict trace's count
  std::string bytes = w.take();
  claim_huge_trailing_count(bytes);

  StreamContext restored(cfg);
  common::StateReader r(bytes);
  EXPECT_THROW(restored.load_state(r), common::StateError);
}

}  // namespace
}  // namespace safecross::serving
