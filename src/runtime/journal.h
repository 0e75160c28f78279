#pragma once
// Write-ahead decision journal: the durable record of everything the
// stream server has told the intersection.
//
// An append-only log of emitted decisions, accepted recalibrations and
// the serving-path switch protocol (ModelSwitch{Begin,Commit,Abort}).
// Each record is framed [u32 payload_len][payload][u32 crc32(payload)]
// behind a fixed file header, appended *before* the decision is applied
// to any in-memory scorecard (write-ahead), and flushed according to the
// configured fsync policy. After a process death the journal is the
// ground truth: replay() walks the frames front to back and returns the
// longest valid prefix, tolerating every torn-tail shape a kill can
// leave — a half-written length word, a record cut mid-payload, a bad
// CRC, trailing garbage — without ever throwing or inventing a record
// that was never fully appended.
//
// Recovery contract (used by serving::StreamServer::recover):
//   * a record in the valid prefix was definitely emitted — replaying it
//     instead of re-deciding dedupes the decision (exactly-once);
//   * a record lost to the torn tail was never applied anywhere durable;
//     the deterministic stream re-produces the same window and re-decides
//     it bit-identically, so losing the tail loses no information.
//
// The fsync policy trades steady-state overhead against the amount of
// *OS-buffered* (not torn) tail at risk on a machine-level crash;
// bench_recovery sweeps it. In-process kills (the chaos harness) always
// see every flushed byte.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "runtime/crash_point.h"

namespace safecross::runtime {

enum class FsyncPolicy {
  None = 0,     // flush to the OS, never fsync (fastest, risk = OS cache)
  EveryN = 1,   // fsync every fsync_every records
  Every = 2,    // fsync after every record (safest, slowest)
};

const char* fsync_policy_name(FsyncPolicy p);

struct JournalConfig {
  FsyncPolicy fsync = FsyncPolicy::Every;
  std::size_t fsync_every = 32;  // used by FsyncPolicy::EveryN
};

enum class JournalRecordType : std::uint8_t {
  Decision = 1,
  // 2 is retired (journal v2's engine model-switch record): never reuse it.
  Recalibration = 3,
  // Serving-path switch protocol (DESIGN.md §14): a switch is write-ahead
  // as Begin, then exactly one terminal record — Commit when the pipelined
  // load lands, Abort when the load fails or recovery finds the Begin
  // dangling after a mid-switch kill.
  ModelSwitchBegin = 4,
  ModelSwitchCommit = 5,
  ModelSwitchAbort = 6,
};

/// One emitted decision. Weather/source enums travel as raw bytes so the
/// journal stays below the serving layer. latency_ms is wall-clock and
/// excluded from the bit-identical stream contract — it is persisted only
/// so a recovered scorecard's latency tallies match the killed run's.
struct DecisionEntry {
  std::uint32_t stream = 0;
  std::uint64_t seq = 0;    // per-stream decision ordinal (0-based)
  std::uint64_t frame = 0;  // 1-based frame ordinal that produced it
  bool danger_truth = false;
  std::int32_t predicted_class = 0;
  float prob_danger = 1.0f;
  bool warn = true;
  std::uint8_t source = 0;  // runtime::DecisionSource
  double latency_ms = 0.0;
  // Ownership epoch the serving incarnation held when it decided (fleet
  // split-brain fencing, DESIGN.md §16). 0 = pre-fleet standalone serving;
  // the fleet mints epochs starting at 1. The post-run epoch audit walks
  // journals and rejects any decision recorded under a stale epoch.
  std::uint64_t owner_epoch = 0;

  template <class Self, class A>
  static void persist(Self& d, A& a) {
    a.u32(d.stream);
    a.u64(d.seq);
    a.u64(d.frame);
    a.boolean(d.danger_truth);
    a.i32(d.predicted_class);
    a.f32(d.prob_danger);
    a.boolean(d.warn);
    a.u8(d.source);
    a.f64(d.latency_ms);
    a.u64(d.owner_epoch);
  }
};

/// One accepted online recalibration: the image->grid homography the
/// recalibration loop swapped in, with the diagnostics that justified it.
/// Recovery replays these against the re-derived calibration lineage and
/// requires bit-identical matrices — the calibration history is part of
/// the deterministic stream contract, not advisory metadata.
struct RecalibrationEntry {
  std::uint32_t stream = 0;
  std::uint64_t frame = 0;           // 1-based frame the swap landed on
  std::array<double, 9> image_to_grid{};
  double residual_rms = 0.0;
  double drift_px = 0.0;             // detected drift that triggered it
  std::uint32_t attempts = 0;        // estimate attempts (retry_with_backoff)

  /// Shared by the journal record and RecalibrationLoop's checkpoint.
  template <class Self, class A>
  static void persist(Self& c, A& a) {
    a.u32(c.stream);
    a.u64(c.frame);
    for (auto& v : c.image_to_grid) a.f64(v);
    a.f64(c.residual_rms);
    a.f64(c.drift_px);
    a.u32(c.attempts);
  }
};

/// One phase transition of a serving-path model switch. All three phase
/// record types (Begin/Commit/Abort) share this body; `switch_id` pairs a
/// Begin with its terminal record so recovery can audit exactly-once.
/// `reason` is meaningful on Abort only: 0 = unused, 1 = dangling Begin
/// closed by recovery after a mid-switch kill, 2 = load failure at run time.
struct SwitchPhaseEntry {
  std::uint64_t switch_id = 0;
  std::uint8_t weather = 0;   // Weather the switch targets (raw byte)
  std::uint8_t mode = 0;      // serving::SwitchMode the server ran under
  std::uint8_t reason = 0;
  double wall_ms = 0.0;       // load wall time (Commit only; 0 otherwise)
  std::uint64_t at_decision = 0;  // decisions journaled before this phase

  template <class Self, class A>
  static void persist(Self& p, A& a) {
    a.u64(p.switch_id);
    a.u8(p.weather);
    a.u8(p.mode);
    a.u8(p.reason);
    a.f64(p.wall_ms);
    a.u64(p.at_decision);
  }
};

struct JournalRecord {
  JournalRecordType type = JournalRecordType::Decision;
  DecisionEntry decision;
  RecalibrationEntry recalibration;
  SwitchPhaseEntry switch_phase;
};

class Journal {
 public:
  static constexpr std::uint32_t kMagic = 0x4C4A5853u;  // "SXJL"
  // v2: DecisionEntry.owner_epoch; v3: no engine ModelSwitch record.
  static constexpr std::uint32_t kVersion = 3;
  static constexpr std::size_t kHeaderBytes = 8;
  static constexpr std::size_t kMaxRecordBytes = 1u << 20;

  Journal() = default;
  ~Journal() { close(); }

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open for appending, creating the file (with header) when absent or
  /// empty. The caller is responsible for truncating a torn tail first
  /// (recover does: replay, then truncate to valid_bytes, then open) —
  /// appending after an unvalidated tail would bury good records behind
  /// garbage.
  void open(const std::filesystem::path& path, JournalConfig config,
            CrashInjector* crash = nullptr);

  bool is_open() const { return file_ != nullptr; }

  /// Append one record (write-ahead: call this BEFORE applying the
  /// decision). Flushes to the OS always; fsyncs per policy. Crash
  /// points: BeforeJournalAppend, MidJournalAppend (flushes a deliberate
  /// half-record then throws CrashInjected), AfterJournalAppend.
  void append(const JournalRecord& record);

  /// Flush + fsync regardless of policy (end of run).
  void sync();

  void close();

  std::uint64_t records_appended() const { return records_appended_; }

  /// Framed on-disk bytes of one record (exposed for the property suite).
  static std::string encode(const JournalRecord& record);

  struct ReplayReport {
    std::vector<JournalRecord> records;  // longest valid prefix, in order
    std::uint64_t valid_bytes = 0;       // header + intact frames
    std::uint64_t file_bytes = 0;
    bool missing = true;      // no file at all (fresh start)
    bool bad_header = false;  // file exists but magic/version wrong
    bool torn_tail = false;   // bytes past the valid prefix were dropped
    std::string tail_error;   // why the walk stopped, when it did
  };

  /// Torn-write-tolerant replay: never throws on file content, returns
  /// the longest valid prefix plus a structured account of what (if
  /// anything) was dropped.
  static ReplayReport replay(const std::filesystem::path& path);

 private:
  void write_bytes(const std::string& bytes);

  std::FILE* file_ = nullptr;
  JournalConfig config_;
  CrashInjector* crash_ = nullptr;
  std::uint64_t records_appended_ = 0;
  std::size_t records_since_sync_ = 0;
};

}  // namespace safecross::runtime
