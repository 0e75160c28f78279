// Kill–recover chaos harness: the durability layer's acceptance test.
//
// For seeded two-stream scenarios the suite computes the uninterrupted
// decision stream once, then kills a durable server at randomized crash
// points — including mid-journal-append (torn tail) and mid-snapshot-write
// (half-written temp file) — recovers a fresh server from the damaged
// directory, lets it finish, and requires the concatenated decision
// stream to be BIT-IDENTICAL to the uninterrupted run: no lost decision,
// no duplicated decision, every verdict field equal. Corruption on top of
// the kill (flipped snapshot bytes, garbage generations, torn journal)
// must degrade recovery — never abort it.
//
// Scratch directories live under chaos_scratch/ in the working directory
// and are kept when a test fails, so CI can upload the damaged state as
// an artifact for post-mortem.

#include "serving/stream_server.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/checksum.h"
#include "common/rng.h"
#include "common/state_io.h"
#include "models/slowfast.h"
#include "sim/intersection.h"

namespace safecross::serving {
namespace {

namespace fs = std::filesystem;

using core::SafeCross;
using core::SafeCrossConfig;
using dataset::Weather;
using runtime::CrashInjected;
using runtime::CrashInjector;
using runtime::CrashPoint;

constexpr std::size_t kFrames = 1800;  // ~60 s per stream at 30 Hz

SafeCrossConfig tiny_config() {
  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  return cfg;
}

std::unique_ptr<SafeCross> engine_with_models(const std::vector<Weather>& weathers) {
  auto sc = std::make_unique<SafeCross>(tiny_config());
  for (Weather w : weathers) {
    models::SlowFastConfig mc = tiny_config().model;
    mc.init_seed = 100u + static_cast<std::uint64_t>(w);
    sc->set_model(w, std::make_unique<models::SlowFast>(mc));
  }
  return sc;
}

/// Durable dir under the working directory; kept on failure so the CI
/// chaos job can upload the damaged journal/snapshot state.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::current_path() / "chaos_scratch" / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    if (!::testing::Test::HasFailure()) {
      std::error_code ec;
      fs::remove_all(path, ec);
    }
  }
};

/// Two streams (daytime + rain, so both weathers' models serve).
/// An empty dir gives the uninterrupted reference configuration.
StreamServerConfig chaos_config(std::uint64_t base, const fs::path& dir,
                                CrashInjector* crash) {
  StreamServerConfig cfg;
  cfg.frames = kFrames;
  cfg.record_traces = true;
  cfg.shed_on_overload = false;
  // Tight queues keep the producers coupled to the inference consumer.
  // With deep queues the producers race the whole run ahead, every window
  // lands in the batcher backlog, and the only consistent snapshot cut
  // (all produced windows applied) is the end of the run — leaving the
  // mid-snapshot crash ordinals unreachable in batched mode.
  cfg.queue_capacity = 2;
  for (std::uint64_t i = 0; i < 2; ++i) {
    StreamConfig s;
    s.name = "cam" + std::to_string(i);
    s.weather = i == 0 ? Weather::Daytime : Weather::Rain;
    s.sim_seed = base + 10 * i;
    s.collector_seed = base + 10 * i + 1;
    s.fault_seed = base + 10 * i + 2;
    cfg.streams.push_back(s);
  }
  cfg.durability.dir = dir;
  cfg.durability.snapshot_every_decisions = 8;
  cfg.durability.keep_snapshots = 2;
  cfg.durability.crash = crash;
  return cfg;
}

enum class Mode { Sequential, Batched };

void run_server(StreamServer& server, Mode mode) {
  mode == Mode::Batched ? server.run() : server.run_sequential();
}

/// Run a durable server with an armed injector; true when the simulated
/// kill fired (the server object is destroyed either way, as a real
/// process death would).
bool run_killed(SafeCross& engine, const StreamServerConfig& cfg, Mode mode) {
  StreamServer server(engine, cfg);
  try {
    run_server(server, mode);
  } catch (const CrashInjected&) {
    return true;
  }
  return false;
}

/// Fresh incarnation against the damaged directory: recover, then finish
/// the run. Returns the server so the caller can compare its streams.
std::unique_ptr<StreamServer> recover_and_finish(SafeCross& engine,
                                                 const StreamServerConfig& cfg, Mode mode,
                                                 RecoveryReport* report = nullptr) {
  auto server = std::make_unique<StreamServer>(engine, cfg);
  const RecoveryReport rep = server->recover();
  if (report) *report = rep;
  run_server(*server, mode);
  return server;
}

/// The bit-identical contract: per-stream traces equal in every field and
/// scorecards equal in every counter. Latency is wall-clock and excluded.
void expect_servers_agree(const StreamServer& got, const StreamServer& want) {
  ASSERT_EQ(got.stream_count(), want.stream_count());
  for (std::size_t i = 0; i < got.stream_count(); ++i) {
    const auto& g = got.stream(i);
    const auto& w = want.stream(i);
    SCOPED_TRACE("stream " + g.config().name);
    EXPECT_EQ(g.frames_run(), w.frames_run());
    EXPECT_EQ(g.windows_produced(), w.windows_produced());
    const auto& gt = g.trace();
    const auto& wt = w.trace();
    ASSERT_EQ(gt.size(), wt.size()) << "a decision was lost or duplicated";
    for (std::size_t s = 0; s < gt.size(); ++s) {
      SCOPED_TRACE("seq " + std::to_string(s));
      EXPECT_EQ(gt[s].frame, wt[s].frame);
      EXPECT_EQ(gt[s].danger_truth, wt[s].danger_truth);
      EXPECT_EQ(gt[s].predicted_class, wt[s].predicted_class);
      EXPECT_EQ(gt[s].prob_danger, wt[s].prob_danger) << "verdicts must be bit-identical";
      EXPECT_EQ(gt[s].warn, wt[s].warn);
      EXPECT_EQ(gt[s].source, wt[s].source);
      EXPECT_EQ(gt[s].model_weather, wt[s].model_weather) << "model lineage diverged";
      EXPECT_EQ(gt[s].epoch, wt[s].epoch) << "switch-epoch lineage diverged";
    }
    EXPECT_EQ(g.scorecard().decisions(), w.scorecard().decisions());
    EXPECT_EQ(g.scorecard().warnings(), w.scorecard().warnings());
    EXPECT_EQ(g.scorecard().correct(), w.scorecard().correct());
    EXPECT_EQ(g.scorecard().missed_threats(), w.scorecard().missed_threats());
    EXPECT_EQ(g.scorecard().false_warnings(), w.scorecard().false_warnings());
    EXPECT_EQ(g.scorecard().fail_safe_decisions(), w.scorecard().fail_safe_decisions());
    EXPECT_EQ(g.scorecard().decision_opportunities(),
              w.scorecard().decision_opportunities());
  }
}

bool is_journal_point(CrashPoint p) {
  return p == CrashPoint::BeforeJournalAppend || p == CrashPoint::MidJournalAppend ||
         p == CrashPoint::AfterJournalAppend;
}

/// One seed of the acceptance sweep: kill at mid-journal-append,
/// mid-snapshot-write, and one more randomized point, each at a
/// rng-chosen hit ordinal; every recovery must be bit-identical.
void kill_recover_seed_sweep(std::uint64_t base) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  StreamServer reference(*sc, chaos_config(base, {}, nullptr));
  reference.run_sequential();
  ASSERT_GE(reference.total_decisions(), 24u) << "weak scenario for seed " << base;

  Rng rng(base ^ 0xC4A05ull);
  const CrashPoint extras[] = {CrashPoint::BeforeJournalAppend,
                               CrashPoint::AfterJournalAppend,
                               CrashPoint::BeforeSnapshotWrite,
                               CrashPoint::BeforeSnapshotRename,
                               CrashPoint::AfterSnapshotRename};
  const CrashPoint points[] = {CrashPoint::MidJournalAppend, CrashPoint::MidSnapshotWrite,
                               extras[rng.uniform_int(std::uint64_t{5})]};
  for (const CrashPoint point : points) {
    SCOPED_TRACE(crash_point_name(point));
    ScratchDir scratch("seed_" + std::to_string(base) + "_" + crash_point_name(point));
    CrashInjector injector;
    // Journal points hit once per record (>= 24 here); snapshot points
    // once per 8 decisions. Both ordinals stay safely below the totals.
    const std::size_t nth = is_journal_point(point)
                                ? 1 + rng.uniform_int(std::uint64_t{12})
                                : 1 + rng.uniform_int(std::uint64_t{2});
    injector.arm(point, nth);
    StreamServerConfig cfg = chaos_config(base, scratch.path, &injector);
    ASSERT_TRUE(run_killed(*sc, cfg, Mode::Sequential))
        << "armed kill (nth=" << nth << ") never fired";
    injector.disarm();
    auto recovered = recover_and_finish(*sc, cfg, Mode::Sequential);
    expect_servers_agree(*recovered, reference);
  }
}

// Five seeds x three kill points each (the ISSUE's acceptance floor).
TEST(KillRecover, Seed82000BitIdenticalAcrossKillPoints) { kill_recover_seed_sweep(82000); }
TEST(KillRecover, Seed85000BitIdenticalAcrossKillPoints) { kill_recover_seed_sweep(85000); }
TEST(KillRecover, Seed87000BitIdenticalAcrossKillPoints) { kill_recover_seed_sweep(87000); }
TEST(KillRecover, Seed91000BitIdenticalAcrossKillPoints) { kill_recover_seed_sweep(91000); }
TEST(KillRecover, Seed97000BitIdenticalAcrossKillPoints) { kill_recover_seed_sweep(97000); }

// Every crash point in the enum, one seed — and afterwards the journal
// itself is audited: exactly one record per (stream, seq), each matching
// the reference verdict, so "no lost, no duplicated" holds on disk too.
TEST(KillRecover, EveryCrashPointRecoversAndJournalIsExactlyOnce) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 87000;
  StreamServer reference(*sc, chaos_config(kBase, {}, nullptr));
  reference.run_sequential();
  ASSERT_GE(reference.total_decisions(), 24u);

  // The sequential path only reaches the durability points; the three
  // serving-path switch points are exercised by the SwitchStorm cases below.
  for (int p = 0; p < runtime::kDurabilityCrashPointCount; ++p) {
    const CrashPoint point = static_cast<CrashPoint>(p);
    SCOPED_TRACE(crash_point_name(point));
    ScratchDir scratch(std::string("exhaustive_") + crash_point_name(point));
    CrashInjector injector;
    injector.arm(point, is_journal_point(point) ? 9 : 2);
    StreamServerConfig cfg = chaos_config(kBase, scratch.path, &injector);
    ASSERT_TRUE(run_killed(*sc, cfg, Mode::Sequential));
    injector.disarm();
    auto recovered = recover_and_finish(*sc, cfg, Mode::Sequential);
    expect_servers_agree(*recovered, reference);

    // On-disk exactly-once: replay the final journal and check one
    // record per (stream, seq), each bitwise-equal to the reference.
    const auto replay = runtime::Journal::replay(scratch.path / "journal.wal");
    EXPECT_FALSE(replay.torn_tail) << "recovery must have truncated the torn tail";
    std::map<std::pair<std::uint32_t, std::uint64_t>, runtime::DecisionEntry> seen;
    for (const runtime::JournalRecord& rec : replay.records) {
      if (rec.type != runtime::JournalRecordType::Decision) continue;
      const auto key = std::make_pair(rec.decision.stream, rec.decision.seq);
      ASSERT_TRUE(seen.emplace(key, rec.decision).second)
          << "duplicate journal record for stream " << key.first << " seq " << key.second;
    }
    EXPECT_EQ(seen.size(), reference.total_decisions());
    for (const auto& [key, entry] : seen) {
      const auto& trace = reference.stream(key.first).trace();
      ASSERT_LT(key.second, trace.size());
      const DecisionRecord& want = trace[key.second];
      EXPECT_EQ(entry.frame, want.frame);
      EXPECT_EQ(entry.danger_truth, want.danger_truth);
      EXPECT_EQ(entry.predicted_class, want.predicted_class);
      EXPECT_EQ(entry.prob_danger, want.prob_danger);
      EXPECT_EQ(entry.warn, want.warn);
      EXPECT_EQ(entry.source, static_cast<std::uint8_t>(want.source));
    }
  }
}

// --- serving-path switch storms: the three switch crash points ---

/// chaos_config plus a pipelined switch storm: three weathers cycling
/// every 150 frames over a two-resident cache (so evictions really
/// happen), delay_ms = 0 (no fail-safe gating — every decision stays
/// model-gated and bit-comparable to the oracle), a longer run so the
/// sim's sparse turn-wait bursts land in many different switch epochs,
/// and a scaled-down cache so a load moves ~33 KB instead of ~136 MB.
StreamServerConfig storm_config(std::uint64_t base, const fs::path& dir,
                                CrashInjector* crash) {
  StreamServerConfig cfg = chaos_config(base, dir, crash);
  cfg.frames = 3600;
  cfg.switch_mode = SwitchMode::Pipelined;
  cfg.model_cache.capacity_models = 2;
  cfg.model_cache.bytes_scale = 1.0 / 4096.0;
  cfg.model_cache.executor.bandwidth_gbps = 64.0;
  cfg.model_cache.executor.compute_scale = 0.001;
  const Weather cycle[2][3] = {{Weather::Rain, Weather::Snow, Weather::Daytime},
                               {Weather::Snow, Weather::Daytime, Weather::Rain}};
  for (std::size_t i = 0; i < cfg.streams.size(); ++i) {
    for (std::size_t k = 0; 200 + 150 * k < cfg.frames; ++k) {
      cfg.streams[i].model_schedule.push_back({200 + 150 * k, cycle[i][k % 3], 0.0});
    }
  }
  return cfg;
}

/// On-disk exactly-once for the switch protocol: every switch_id in the
/// final journal has exactly one Begin and exactly one terminal record
/// (Commit or Abort); `expect_recovery_close` additionally requires at
/// least one Abort with reason = 1 (closed-by-recovery).
void audit_switch_journal(const fs::path& wal, bool expect_recovery_close) {
  const auto replay = runtime::Journal::replay(wal);
  EXPECT_FALSE(replay.torn_tail) << "recovery must have truncated the torn tail";
  struct Tally {
    int begins = 0;
    int terminals = 0;
  };
  std::map<std::uint64_t, Tally> switches;
  std::size_t recovery_aborts = 0;
  for (const runtime::JournalRecord& rec : replay.records) {
    switch (rec.type) {
      case runtime::JournalRecordType::ModelSwitchBegin:
        ++switches[rec.switch_phase.switch_id].begins;
        break;
      case runtime::JournalRecordType::ModelSwitchCommit:
        ++switches[rec.switch_phase.switch_id].terminals;
        break;
      case runtime::JournalRecordType::ModelSwitchAbort:
        ++switches[rec.switch_phase.switch_id].terminals;
        recovery_aborts += rec.switch_phase.reason == 1 ? 1 : 0;
        break;
      default:
        break;
    }
  }
  EXPECT_FALSE(switches.empty()) << "a switch storm must journal switches";
  for (const auto& [id, tally] : switches) {
    EXPECT_EQ(tally.begins, 1) << "switch " << id << " must Begin exactly once";
    EXPECT_EQ(tally.terminals, 1)
        << "switch " << id << " must end in exactly one Commit or Abort";
  }
  if (expect_recovery_close) {
    EXPECT_GE(recovery_aborts, 1u)
        << "the dangling Begin must be closed by a reason=1 Abort";
  }
}

// Kill the pipelined server at each of the three switch crash points —
// right after the Begin record is durable, mid layer-group transfer on
// the loader thread, and mid cache eviction — then recover against the
// damaged dir and finish. The merged decision stream must be
// bit-identical to the switch-free sequential oracle, the dangling Begin
// must be closed by recovery, and the final journal must hold exactly
// one Begin + one terminal per switch_id.
TEST(KillRecover, SwitchStormKillsAtEverySwitchPointRecoverBitIdentical) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain, Weather::Snow});
  constexpr std::uint64_t kBase = 88000;
  StreamServer reference(*sc, storm_config(kBase, {}, nullptr));
  reference.run_sequential();
  ASSERT_GE(reference.total_decisions(), 24u);

  struct Kill {
    CrashPoint point;
    std::size_t nth;
  };
  // MidModelLoad hits once per transferred unit, so nth=4 lands inside
  // the very first pipelined load (loader thread); the eviction point
  // first fires when the third distinct weather displaces a resident.
  for (const Kill kill : {Kill{CrashPoint::AfterSwitchBegin, 2},
                          Kill{CrashPoint::MidModelLoad, 4},
                          Kill{CrashPoint::MidCacheEviction, 1}}) {
    SCOPED_TRACE(crash_point_name(kill.point));
    ScratchDir scratch(std::string("switch_storm_") + crash_point_name(kill.point));
    CrashInjector injector;
    injector.arm(kill.point, kill.nth);
    StreamServerConfig cfg = storm_config(kBase, scratch.path, &injector);
    ASSERT_TRUE(run_killed(*sc, cfg, Mode::Batched))
        << "armed switch kill (nth=" << kill.nth << ") never fired";
    injector.disarm();
    RecoveryReport report;
    auto recovered = recover_and_finish(*sc, cfg, Mode::Batched, &report);
    EXPECT_GE(report.switches_aborted_on_recovery, 1u)
        << "a mid-switch kill leaves a dangling Begin for recovery to close";
    EXPECT_EQ(report.journal_switch_begins,
              report.journal_switch_commits + report.journal_switch_aborts +
                  report.switches_aborted_on_recovery)
        << "every journaled Begin is either terminated or dangling";
    expect_servers_agree(*recovered, reference);
    audit_switch_journal(scratch.path / "journal.wal", /*expect_recovery_close=*/true);
  }
}

// The same storm without a kill: the pipelined batched run commits real
// switches, stays bit-identical to the oracle, and journals exactly one
// Begin + one Commit per switch (no Aborts, nothing dangling).
TEST(KillRecover, SwitchStormUninterruptedCommitsExactlyOnce) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain, Weather::Snow});
  constexpr std::uint64_t kBase = 88000;
  StreamServer reference(*sc, storm_config(kBase, {}, nullptr));
  reference.run_sequential();

  ScratchDir scratch("switch_storm_clean");
  StreamServerConfig cfg = storm_config(kBase, scratch.path, nullptr);
  StreamServer server(*sc, cfg);
  server.run();
  EXPECT_GE(server.switches_committed(), 3u) << "the storm must commit real switches";
  EXPECT_GT(server.model_cache()->stats().evictions, 0u)
      << "three weathers over two residencies must evict";
  expect_servers_agree(server, reference);
  audit_switch_journal(scratch.path / "journal.wal", /*expect_recovery_close=*/false);
}

// A second kill during the recovered run (here: mid-snapshot-write) must
// recover just as cleanly — recovery is re-entrant, not one-shot.
TEST(KillRecover, DoubleKillDoubleRecoverStaysBitIdentical) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 85000;
  StreamServer reference(*sc, chaos_config(kBase, {}, nullptr));
  reference.run_sequential();
  ASSERT_GE(reference.total_decisions(), 24u);

  ScratchDir scratch("double_kill");
  CrashInjector first_kill;
  first_kill.arm(CrashPoint::MidJournalAppend, 9);
  ASSERT_TRUE(run_killed(*sc, chaos_config(kBase, scratch.path, &first_kill),
                         Mode::Sequential));

  CrashInjector second_kill;
  second_kill.arm(CrashPoint::MidSnapshotWrite, 2);
  {
    StreamServer second(*sc, chaos_config(kBase, scratch.path, &second_kill));
    second.recover();
    bool crashed = false;
    try {
      second.run_sequential();
    } catch (const CrashInjected&) {
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "the second kill never fired";
  }

  auto recovered =
      recover_and_finish(*sc, chaos_config(kBase, scratch.path, nullptr), Mode::Sequential);
  expect_servers_agree(*recovered, reference);
}

// The batched server (producer threads + snapshot barrier) under the same
// kills: the consumer thread dies mid-append and mid-snapshot, producers
// are torn down, and the recovered batched run must still match the
// sequential reference bit-for-bit.
TEST(KillRecover, BatchedModeKillsRecoverBitIdentical) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 91000;
  StreamServer reference(*sc, chaos_config(kBase, {}, nullptr));
  reference.run_sequential();
  ASSERT_GE(reference.total_decisions(), 24u);

  struct Kill {
    CrashPoint point;
    std::size_t nth;
  };
  for (const Kill kill : {Kill{CrashPoint::MidJournalAppend, 7},
                          Kill{CrashPoint::MidSnapshotWrite, 2}}) {
    SCOPED_TRACE(crash_point_name(kill.point));
    ScratchDir scratch(std::string("batched_") + crash_point_name(kill.point));
    CrashInjector injector;
    injector.arm(kill.point, kill.nth);
    StreamServerConfig cfg = chaos_config(kBase, scratch.path, &injector);
    ASSERT_TRUE(run_killed(*sc, cfg, Mode::Batched));
    injector.disarm();
    auto recovered = recover_and_finish(*sc, cfg, Mode::Batched);
    expect_servers_agree(*recovered, reference);
  }
}

// A stream with a live fault plan (drops/freezes/blackouts consuming its
// own RNG stream, fail-safe gates in the decision mix) must resume
// bit-identically too — the injector state rides in the snapshot.
TEST(KillRecover, FaultPlanStreamsRecoverBitIdentical) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 95000;
  auto with_faults = [&](const fs::path& dir, CrashInjector* crash) {
    StreamServerConfig cfg = chaos_config(kBase, dir, crash);
    for (StreamConfig& s : cfg.streams) {
      s.faults.drop_prob = 0.02;
      s.faults.freeze_prob = 0.01;
      s.faults.blackout_prob = 0.002;
      s.faults.blackout_frames = 20;
    }
    return cfg;
  };
  StreamServer reference(*sc, with_faults({}, nullptr));
  reference.run_sequential();
  ASSERT_GE(reference.total_decisions(), 8u);

  ScratchDir scratch("fault_plan");
  CrashInjector injector;
  injector.arm(CrashPoint::MidJournalAppend, 5);
  StreamServerConfig cfg = with_faults(scratch.path, &injector);
  ASSERT_TRUE(run_killed(*sc, cfg, Mode::Sequential));
  injector.disarm();
  auto recovered = recover_and_finish(*sc, cfg, Mode::Sequential);
  expect_servers_agree(*recovered, reference);
}

// A drifting camera mid-recalibration when the process dies: the restored
// run must replay the same calibration lineage (same episodes, same
// applied homographies, same conservative warns) bit-identically, and the
// journal must hold exactly one Recalibration record per accepted swap —
// whether the kill hit the sequential loop or the batched consumer.
TEST(KillRecover, DriftRecalibrationStreamsRecoverBitIdentical) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 93000;
  auto with_drift = [&](const fs::path& dir, CrashInjector* crash) {
    StreamServerConfig cfg = chaos_config(kBase, dir, crash);
    for (StreamConfig& s : cfg.streams) {
      s.faults.geometry.drift_px_per_frame = 0.03;  // 1.8 px per check
      s.faults.geometry.drift_stop_frame = 600;
      s.recalib.enabled = true;
      s.recalib.check_every_frames = 60;
    }
    return cfg;
  };
  StreamServer reference(*sc, with_drift({}, nullptr));
  reference.run_sequential();
  ASSERT_GE(reference.total_decisions(), 8u);
  for (std::size_t i = 0; i < reference.stream_count(); ++i) {
    ASSERT_NE(reference.stream(i).recalibration(), nullptr);
    ASSERT_GT(reference.stream(i).recalibration()->recalibrations(), 0u)
        << "weak scenario: stream " << i << " never recalibrated";
  }

  struct Case {
    CrashPoint point;
    Mode mode;
    std::size_t nth;
    const char* tag;
  };
  for (const Case c : {Case{CrashPoint::MidJournalAppend, Mode::Sequential, 9, "seq_journal"},
                       Case{CrashPoint::MidSnapshotWrite, Mode::Sequential, 1, "seq_snapshot"},
                       Case{CrashPoint::MidJournalAppend, Mode::Batched, 7, "batched_journal"}}) {
    SCOPED_TRACE(c.tag);
    ScratchDir scratch(std::string("drift_recalib_") + c.tag);
    CrashInjector injector;
    injector.arm(c.point, c.nth);
    StreamServerConfig cfg = with_drift(scratch.path, &injector);
    ASSERT_TRUE(run_killed(*sc, cfg, c.mode)) << "armed kill never fired";
    injector.disarm();
    auto recovered = recover_and_finish(*sc, cfg, c.mode);
    expect_servers_agree(*recovered, reference);
    for (std::size_t i = 0; i < recovered->stream_count(); ++i) {
      SCOPED_TRACE("stream " + std::to_string(i));
      const runtime::RecalibrationLoop* got = recovered->stream(i).recalibration();
      const runtime::RecalibrationLoop* want = reference.stream(i).recalibration();
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->recalibrations(), want->recalibrations());
      EXPECT_EQ(got->miscalibration_episodes(), want->miscalibration_episodes());
      EXPECT_EQ(got->checks_run(), want->checks_run());
      for (int m = 0; m < 9; ++m) {
        EXPECT_EQ(got->applied_view().matrix()[m], want->applied_view().matrix()[m])
            << "calibration lineage diverged at matrix element " << m;
      }
    }
    // On-disk exactly-once for the calibration lineage: one Recalibration
    // record per accepted swap, never duplicated by the replay dedupe.
    const auto replay = runtime::Journal::replay(scratch.path / "journal.wal");
    EXPECT_FALSE(replay.torn_tail);
    std::map<std::pair<std::uint32_t, std::uint64_t>, std::size_t> recals;
    for (const runtime::JournalRecord& rec : replay.records) {
      if (rec.type != runtime::JournalRecordType::Recalibration) continue;
      ++recals[std::make_pair(rec.recalibration.stream, rec.recalibration.frame)];
    }
    std::vector<std::size_t> per_stream(reference.stream_count(), 0);
    for (const auto& [key, count] : recals) {
      EXPECT_EQ(count, 1u) << "duplicate recalibration record for stream " << key.first
                           << " frame " << key.second;
      ASSERT_LT(key.first, per_stream.size());
      per_stream[key.first] += 1;
    }
    for (std::size_t i = 0; i < reference.stream_count(); ++i) {
      EXPECT_EQ(per_stream[i], reference.stream(i).recalibration()->recalibrations())
          << "journal lost or invented a recalibration on stream " << i;
    }
  }
}

// --- corruption on top of the kill: degrade, never abort ---

TEST(KillRecover, CorruptNewestSnapshotFallsBackToPreviousGeneration) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 87000;
  StreamServer reference(*sc, chaos_config(kBase, {}, nullptr));
  reference.run_sequential();

  ScratchDir scratch("corrupt_newest_snapshot");
  StreamServerConfig cfg = chaos_config(kBase, scratch.path, nullptr);
  {
    StreamServer first(*sc, cfg);
    first.run_sequential();  // completes; >= 2 snapshot generations on disk
  }
  std::vector<fs::path> snaps;
  for (const auto& entry : fs::directory_iterator(scratch.path)) {
    if (entry.path().extension() == ".bin") snaps.push_back(entry.path());
  }
  std::sort(snaps.begin(), snaps.end());
  ASSERT_GE(snaps.size(), 2u);
  common::flip_byte(snaps.back(), fs::file_size(snaps.back()) / 2);

  RecoveryReport report;
  auto recovered = recover_and_finish(*sc, cfg, Mode::Sequential, &report);
  EXPECT_TRUE(report.recovered_from_snapshot);
  ASSERT_EQ(report.snapshots_rejected.size(), 1u);
  EXPECT_NE(report.snapshots_rejected[0].find(snaps.back().filename().string()),
            std::string::npos);
  expect_servers_agree(*recovered, reference);
}

// A CRC-valid generation whose payload does not decode is refused like a
// checksum failure: recovery reports it and resumes from the previous
// generation, decoding into state rebuilt from config.
TEST(KillRecover, UndecodableNewestSnapshotFallsBackToPreviousGeneration) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 87000;
  StreamServerConfig reference_cfg = chaos_config(kBase, {}, nullptr);
  reference_cfg.frames = 900;
  StreamServer reference(*sc, reference_cfg);
  reference.run_sequential();

  ScratchDir scratch("undecodable_newest_snapshot");
  StreamServerConfig cfg = chaos_config(kBase, scratch.path, nullptr);
  cfg.frames = 900;
  {
    StreamServer first(*sc, cfg);
    first.run_sequential();
  }
  const SnapshotStore::Loaded intact = SnapshotStore::load_newest_valid(scratch.path);
  ASSERT_TRUE(intact.found);

  // The payload opens with the fingerprint, the batched-window count, the
  // stream count and two flags per stream; stream 0 then opens with its
  // simulator: rng, clock, next id, vehicle count, and per vehicle its id
  // followed by its route byte.
  common::StateWriter rng;
  Rng().save_state(rng);
  const std::size_t count_at = 3 * 8 + 2 * cfg.streams.size() + rng.bytes().size() + 8 + 8;
  std::string payload = intact.payload;
  ASSERT_GT(payload.size(), count_at + 8 + 8);
  std::uint64_t vehicles = 0;
  std::memcpy(&vehicles, payload.data() + count_at, sizeof(vehicles));
  ASSERT_GT(vehicles, 0u);
  const std::size_t route_at = count_at + 8 + 8;
  ASSERT_LT(static_cast<unsigned char>(payload[route_at]), sim::kNumRoutes);
  payload[route_at] = static_cast<char>(200);
  const std::uint64_t bad_generation =
      SnapshotStore(scratch.path, cfg.durability.keep_snapshots).write(payload);

  RecoveryReport report;
  auto recovered = recover_and_finish(*sc, cfg, Mode::Sequential, &report);
  EXPECT_TRUE(report.recovered_from_snapshot);
  EXPECT_EQ(report.snapshot_generation, intact.generation);
  ASSERT_EQ(report.snapshots_rejected.size(), 1u);
  const std::string bad_name =
      SnapshotStore::generation_path(scratch.path, bad_generation).filename().string();
  EXPECT_EQ(report.snapshots_rejected[0].rfind(bad_name + ": payload: ", 0), 0u)
      << report.snapshots_rejected[0];
  expect_servers_agree(*recovered, reference);
}

TEST(KillRecover, AllSnapshotsCorruptFallsBackToJournalOnlyReplay) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 82000;
  StreamServer reference(*sc, chaos_config(kBase, {}, nullptr));
  reference.run_sequential();

  ScratchDir scratch("all_snapshots_corrupt");
  StreamServerConfig cfg = chaos_config(kBase, scratch.path, nullptr);
  {
    StreamServer first(*sc, cfg);
    first.run_sequential();
  }
  std::size_t damaged = 0;
  for (const auto& entry : fs::directory_iterator(scratch.path)) {
    if (entry.path().extension() != ".bin") continue;
    common::write_garbage(entry.path(), 256, /*seed=*/damaged + 1);
    ++damaged;
  }
  ASSERT_GE(damaged, 2u);

  RecoveryReport report;
  auto recovered = recover_and_finish(*sc, cfg, Mode::Sequential, &report);
  EXPECT_FALSE(report.recovered_from_snapshot);
  EXPECT_EQ(report.snapshots_rejected.size(), damaged);
  // Genesis replay: every journaled decision is pending, none re-decided.
  EXPECT_EQ(report.journal_pending, reference.total_decisions());
  expect_servers_agree(*recovered, reference);
}

// The ISSUE's never-abort criterion in one scenario: a kill that tears
// the journal tail AND garbage across every snapshot. Recovery reports
// the damage and still finishes bit-identical from genesis.
TEST(KillRecover, TornTailPlusCorruptSnapshotsDegradeGracefully) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 82000;
  StreamServer reference(*sc, chaos_config(kBase, {}, nullptr));
  reference.run_sequential();

  ScratchDir scratch("torn_tail_corrupt_snapshots");
  CrashInjector injector;
  injector.arm(CrashPoint::MidJournalAppend, 11);
  StreamServerConfig cfg = chaos_config(kBase, scratch.path, &injector);
  ASSERT_TRUE(run_killed(*sc, cfg, Mode::Sequential));
  injector.disarm();
  std::size_t damaged = 0;
  for (const auto& entry : fs::directory_iterator(scratch.path)) {
    if (entry.path().extension() != ".bin") continue;
    common::write_garbage(entry.path(), 64, /*seed=*/damaged + 41);
    ++damaged;
  }
  ASSERT_GE(damaged, 1u) << "the killed run should have cut at least one snapshot";

  RecoveryReport report;
  auto recovered = recover_and_finish(*sc, cfg, Mode::Sequential, &report);
  EXPECT_FALSE(report.recovered_from_snapshot);
  EXPECT_EQ(report.snapshots_rejected.size(), damaged);
  EXPECT_TRUE(report.journal_torn_tail);
  EXPECT_GT(report.journal_bytes_dropped, 0u);
  EXPECT_FALSE(report.journal_tail_error.empty());
  expect_servers_agree(*recovered, reference);
}

TEST(KillRecover, JournalOnlyModeRecovers) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 97000;
  StreamServer reference(*sc, chaos_config(kBase, {}, nullptr));
  reference.run_sequential();

  ScratchDir scratch("journal_only");
  CrashInjector injector;
  injector.arm(CrashPoint::MidJournalAppend, 9);
  StreamServerConfig cfg = chaos_config(kBase, scratch.path, &injector);
  cfg.durability.snapshot_every_decisions = 0;  // journal-only durability
  ASSERT_TRUE(run_killed(*sc, cfg, Mode::Sequential));
  injector.disarm();
  RecoveryReport report;
  auto recovered = recover_and_finish(*sc, cfg, Mode::Sequential, &report);
  EXPECT_FALSE(report.recovered_from_snapshot);
  EXPECT_GT(report.journal_records, 0u);
  expect_servers_agree(*recovered, reference);
  bool any_snapshot = false;
  for (const auto& entry : fs::directory_iterator(scratch.path)) {
    any_snapshot |= entry.path().extension() == ".bin";
  }
  EXPECT_FALSE(any_snapshot) << "snapshot_every_decisions = 0 must never snapshot";
}

TEST(KillRecover, RecoverOnFreshDirIsAFreshStart) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 85000;
  StreamServer reference(*sc, chaos_config(kBase, {}, nullptr));
  reference.run_sequential();

  ScratchDir scratch("fresh_dir");
  StreamServerConfig cfg = chaos_config(kBase, scratch.path, nullptr);
  RecoveryReport report;
  auto recovered = recover_and_finish(*sc, cfg, Mode::Sequential, &report);
  EXPECT_TRUE(report.journal_missing);
  EXPECT_FALSE(report.recovered_from_snapshot);
  EXPECT_EQ(report.journal_pending, 0u);
  expect_servers_agree(*recovered, reference);
}

/// Write `bytes` to `path` verbatim (a file left by an older build).
void write_file(const fs::path& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

// A dir left by the previous on-disk formats — a v2 journal holding an
// engine model-switch record and a v3 snapshot that still carries the
// engine's active weather — is reported as bad magic/version, trusted for
// nothing, and the run restarts from genesis bit-identically.
TEST(KillRecover, PreviousFormatJournalAndSnapshotAreRejectedWithAReport) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 85000;
  StreamServer reference(*sc, chaos_config(kBase, {}, nullptr));
  reference.run_sequential();

  ScratchDir scratch("previous_format");
  StreamServerConfig cfg = chaos_config(kBase, scratch.path, nullptr);
  {
    common::StateWriter record;  // v2 ModelSwitch: type 2, weather, delay, at
    record.u8(2);
    record.u8(static_cast<std::uint8_t>(Weather::Rain));
    record.f64(120.0);
    record.u64(0);
    common::StateWriter journal;
    journal.u32(runtime::Journal::kMagic);
    journal.u32(runtime::Journal::kVersion - 1);
    journal.u32(static_cast<std::uint32_t>(record.bytes().size()));
    journal.raw(record.bytes().data(), record.bytes().size());
    journal.u32(common::crc32(record.bytes()));
    write_file(scratch.path / "journal.wal", journal.bytes());
  }
  const fs::path old_snapshot = SnapshotStore::generation_path(scratch.path, 1);
  {
    common::StateWriter frame;
    frame.u32(SnapshotStore::kMagic);
    frame.u32(SnapshotStore::kVersion - 1);
    frame.u64(1);
    frame.str(std::string(32, '\0'));
    frame.u32(common::crc32(frame.bytes()));
    write_file(old_snapshot, frame.bytes());
  }

  RecoveryReport report;
  auto recovered = recover_and_finish(*sc, cfg, Mode::Sequential, &report);
  EXPECT_TRUE(report.journal_bad_header);
  EXPECT_EQ(report.journal_tail_error, "bad journal magic/version");
  EXPECT_EQ(report.journal_records, 0u);
  EXPECT_FALSE(report.recovered_from_snapshot);
  ASSERT_EQ(report.snapshots_rejected.size(), 1u);
  EXPECT_EQ(report.snapshots_rejected[0],
            old_snapshot.filename().string() + ": bad magic/version");
  EXPECT_EQ(report.journal_pending, 0u);
  expect_servers_agree(*recovered, reference);
}

// Double failover: the fleet controller may recover the SAME damaged dir
// twice — once for a failover wave that itself dies before completing,
// once more from a later wave. recover() + drain_streams() must be
// idempotent reads: a second recovery of an already-consumed dir yields
// byte-identical hand-offs (the first recovery's torn-tail truncation
// is the only on-disk mutation, and it must not change the replay), and
// a server that adopts those hand-offs into a fresh dir finishes
// bit-identical to the uninterrupted reference.
TEST(KillRecover, RecoverFromAnAlreadyConsumedDirYieldsIdenticalHandoffs) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  constexpr std::uint64_t kBase = 91000;
  StreamServer reference(*sc, chaos_config(kBase, {}, nullptr));
  reference.run_sequential();
  ASSERT_GE(reference.total_decisions(), 24u);

  ScratchDir scratch("double_recover_consumed");
  CrashInjector injector;
  injector.arm(CrashPoint::MidJournalAppend, 9);  // torn tail on disk
  StreamServerConfig cfg = chaos_config(kBase, scratch.path, &injector);
  ASSERT_TRUE(run_killed(*sc, cfg, Mode::Sequential));
  injector.disarm();
  cfg.durability.crash = nullptr;

  StreamServer first(*sc, cfg);
  RecoveryReport first_report = first.recover();
  const std::vector<StreamHandoff> a = first.drain_streams();
  EXPECT_TRUE(first_report.journal_torn_tail);

  StreamServer second(*sc, cfg);
  RecoveryReport second_report = second.recover();
  const std::vector<StreamHandoff> b = second.drain_streams();
  // The first recovery truncated the torn tail in place; the second sees
  // a clean journal holding the identical records.
  EXPECT_FALSE(second_report.journal_torn_tail);
  EXPECT_EQ(second_report.journal_pending, first_report.journal_pending);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("stream " + a[i].config.name);
    EXPECT_EQ(a[i].config.name, b[i].config.name);
    EXPECT_EQ(a[i].state, b[i].state) << "recovery must be a read, not a consume";
    EXPECT_EQ(a[i].down, b[i].down);
    EXPECT_EQ(a[i].frames_run, b[i].frames_run);
    EXPECT_EQ(a[i].windows_produced, b[i].windows_produced);
    ASSERT_EQ(a[i].pending.size(), b[i].pending.size());
    for (const auto& [seq, entry] : a[i].pending) {
      const auto it = b[i].pending.find(seq);
      ASSERT_NE(it, b[i].pending.end());
      EXPECT_EQ(entry.prob_danger, it->second.prob_danger);
      EXPECT_EQ(entry.warn, it->second.warn);
    }
    EXPECT_EQ(a[i].pending_recalib.size(), b[i].pending_recalib.size());
  }

  // Adopt the second drain into a fresh durable dir (the fleet's
  // failover-wave shape) and finish: still bit-identical.
  ScratchDir fresh("double_recover_fresh_wave");
  StreamServerConfig wave_cfg = chaos_config(kBase, fresh.path, nullptr);
  StreamServer wave(*sc, wave_cfg);
  for (std::size_t i = 0; i < b.size(); ++i) wave.adopt_stream(i, b[i]);
  wave.run_sequential();
  expect_servers_agree(wave, reference);
}

// --- operator errors stay loud (corruption degrades; misuse throws) ---

TEST(KillRecover, DurabilityRejectsSheddingConfigs) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  ScratchDir scratch("shed_rejected");
  StreamServerConfig cfg = chaos_config(82000, scratch.path, nullptr);
  cfg.shed_on_overload = true;  // lossy + durable is unrecoverable
  EXPECT_THROW(StreamServer(*sc, cfg), std::invalid_argument);
}

TEST(KillRecover, RunningOnAPreviousRunsDirWithoutRecoverThrows) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  ScratchDir scratch("stale_dir");
  StreamServerConfig cfg = chaos_config(82000, scratch.path, nullptr);
  {
    StreamServer first(*sc, cfg);
    first.run_sequential();
  }
  StreamServer second(*sc, cfg);
  EXPECT_THROW(second.run_sequential(), std::runtime_error)
      << "silently appending onto a previous run's journal must be refused";
}

TEST(KillRecover, SnapshotFromDifferentConfigIsRejected) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  ScratchDir scratch("fingerprint_mismatch");
  StreamServerConfig cfg = chaos_config(82000, scratch.path, nullptr);
  {
    StreamServer first(*sc, cfg);
    first.run_sequential();
  }
  StreamServerConfig other = cfg;
  other.streams[0].sim_seed += 1;  // not the run this snapshot belongs to
  StreamServer impostor(*sc, other);
  EXPECT_THROW(impostor.recover(), std::runtime_error);
}

TEST(KillRecover, RecoverMisuseThrowsLogicError) {
  auto sc = engine_with_models({Weather::Daytime, Weather::Rain});
  {
    StreamServer no_durability(*sc, chaos_config(82000, {}, nullptr));
    EXPECT_THROW(no_durability.recover(), std::logic_error);
  }
  ScratchDir scratch("recover_twice");
  StreamServer twice(*sc, chaos_config(82000, scratch.path, nullptr));
  twice.recover();
  EXPECT_THROW(twice.recover(), std::logic_error);
}

}  // namespace
}  // namespace safecross::serving
