#pragma once
// Crash-consistent snapshot store for the stream server.
//
// A snapshot is one opaque payload (the server serializes its resumable
// state into it with common::StateWriter) wrapped in a self-validating
// frame: magic, version, generation number, length-prefixed payload and
// a trailing CRC32 of everything before it. Generations are monotonically
// increasing and each lives in its own file (snap-00000001.bin, ...), so
// the store never modifies a published snapshot — it only adds new ones
// and prunes old ones.
//
// Atomicity: write() serializes to snap-XXXXXXXX.tmp, fflush + fsync,
// then renames to the final name (rename within a directory is atomic on
// POSIX) and fsyncs the directory so the new name itself is durable. A
// kill at any instant therefore leaves either (a) the previous good
// generations untouched plus an ignorable .tmp, or (b) those plus one
// complete new generation. load_newest_valid() walks generations newest
// to oldest, CRC-checking each (and, given a payload check, decoding
// it), and returns the first intact one — a corrupt, torn or
// undecodable newest snapshot falls back to the previous good generation
// with a structured list of what was rejected and why.
//
// Chaos hooks: BeforeSnapshotWrite / MidSnapshotWrite (flushes a genuine
// half-written temp file, then dies) / BeforeSnapshotRename /
// AfterSnapshotRename.

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "runtime/crash_point.h"

namespace safecross::serving {

class SnapshotStore {
 public:
  static constexpr std::uint32_t kMagic = 0x4E535853u;  // "SXSN"
  // v2: detached flags in the payload; v3: no scorecard latency list;
  // v4: no engine active weather or engine switch count.
  static constexpr std::uint32_t kVersion = 4;

  /// Opens (and creates) `dir`; scans existing generations so the next
  /// write() continues the sequence instead of reusing a burned number.
  /// Stale .tmp files from a killed writer are removed here.
  SnapshotStore(std::filesystem::path dir, std::size_t keep);

  /// Atomically publish `payload` as the next generation; returns its
  /// generation number. Prunes all but the newest `keep` generations
  /// after a successful publish (never before — the previous good
  /// snapshot must survive until the new one is durable).
  std::uint64_t write(const std::string& payload,
                      runtime::CrashInjector* crash = nullptr);

  std::uint64_t next_generation() const { return next_gen_; }
  const std::filesystem::path& dir() const { return dir_; }

  struct Loaded {
    bool found = false;
    std::uint64_t generation = 0;
    std::string payload;
    /// Newest-first "file: reason" lines for every generation that was
    /// present but failed validation (recovery report material).
    std::vector<std::string> rejected;
  };

  /// Judges a frame-valid payload: "" accepts it, anything else is the
  /// reason it is refused (recorded as "file: payload: <reason>").
  using PayloadCheck = std::function<std::string(const std::string& payload)>;

  /// Newest intact generation, skipping (and recording) corrupt ones and
  /// ones `check` refuses. Never throws on file *content* (a throw from
  /// `check` propagates); missing directory → not found.
  static Loaded load_newest_valid(const std::filesystem::path& dir,
                                  const PayloadCheck& check = {});

  static std::filesystem::path generation_path(const std::filesystem::path& dir,
                                               std::uint64_t generation);

 private:
  /// One newest-first pass over the listed generations; sets `vanished`
  /// when a listed generation was gone by the time it was read.
  static Loaded walk_newest_valid(const std::filesystem::path& dir, const PayloadCheck& check,
                                  bool& vanished);

  std::filesystem::path dir_;
  std::size_t keep_;
  std::uint64_t next_gen_ = 1;
};

}  // namespace safecross::serving
