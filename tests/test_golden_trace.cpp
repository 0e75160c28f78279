// Golden-trace regression suite: pin the end-to-end decision behaviour
// of the live paths against committed snapshots, so an innocent-looking
// refactor that shifts a verdict, a gate, or a scorecard count fails CI
// with a diff instead of sailing through.
//
// Two scenarios are pinned:
//   * one served stream (StreamServer at K = 1) under a deterministic
//     fault plan (drops, freezes, noise bursts, blackouts + a seeded sim);
//   * the multi-stream serving reference (three streams: daytime, rain,
//     and one with a mid-run daytime→rain model switch).
//
// Snapshot format (tests/golden/*.txt): a `meta` line of integer
// scorecard counters (one `srcN` per decision source), then one `d` line
// per decision. Integer fields (frame ordinals, truths, verdict classes,
// warn flags, gate sources, model weather and switch epoch) compare
// exactly. prob_danger is stored at 4 decimals and compares with
// a 2e-3 tolerance: -ffp-contract/-march differences between the
// committed build and CI legitimately perturb the last float ulps, and
// the tolerance is far below anything that could flip a verdict (those
// are pinned exactly via predicted_class/warn).
//
// Regenerating after an *intentional* behaviour change:
//   ./build/tests/safecross_golden_tests --update-golden
// then commit the rewritten files under tests/golden/ with a note in the
// PR about why the behaviour moved.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "models/slowfast.h"
#include "serving/stream_server.h"

namespace safecross {

// Set by main() when --update-golden is on the command line.
bool g_update_golden = false;

namespace {

std::string golden_path(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

struct TraceLine {
  int stream = 0;
  std::size_t seq = 0;
  std::size_t frame = 0;
  int truth = 0;
  int pred = 0;
  int warn = 0;
  int source = 0;
  double prob = 0.0;
  // Model lineage (serving-path switching): which weather's model the
  // decision wanted and the stream's switch epoch at capture.
  int weather = 0;
  int epoch = 0;
};

struct GoldenTrace {
  std::vector<std::pair<std::string, long long>> meta;  // ordered integer counters
  std::vector<TraceLine> lines;
};

void write_golden(const std::string& path, const GoldenTrace& trace) {
  std::ofstream out(path);
  ASSERT_TRUE(out) << "cannot write " << path;
  out << "# SafeCross golden trace. Integer fields exact; prob tolerance 2e-3.\n";
  out << "# Regenerate: safecross_golden_tests --update-golden (then commit).\n";
  out << "meta";
  for (const auto& [key, value] : trace.meta) out << ' ' << key << '=' << value;
  out << '\n';
  char buf[160];
  for (const TraceLine& l : trace.lines) {
    std::snprintf(buf, sizeof(buf), "d %d %zu %zu %d %d %d %d %.4f %d %d\n", l.stream, l.seq,
                  l.frame, l.truth, l.pred, l.warn, l.source, l.prob, l.weather, l.epoch);
    out << buf;
  }
}

GoldenTrace read_golden(const std::string& path) {
  GoldenTrace trace;
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing golden snapshot " << path
                  << " — run safecross_golden_tests --update-golden and commit it";
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string tag;
    ss >> tag;
    if (tag == "meta") {
      std::string kv;
      while (ss >> kv) {
        const auto eq = kv.find('=');
        trace.meta.emplace_back(kv.substr(0, eq), std::stoll(kv.substr(eq + 1)));
      }
    } else if (tag == "d") {
      TraceLine l;
      ss >> l.stream >> l.seq >> l.frame >> l.truth >> l.pred >> l.warn >> l.source >> l.prob >>
          l.weather >> l.epoch;
      EXPECT_TRUE(ss) << "malformed decision line in " << path << ": " << line;
      trace.lines.push_back(l);
    }
  }
  return trace;
}

/// Compare a freshly computed trace against the committed snapshot — or
/// rewrite the snapshot when running under --update-golden.
void check_against_golden(const std::string& name, const GoldenTrace& got) {
  const std::string path = golden_path(name);
  if (g_update_golden) {
    write_golden(path, got);
    SUCCEED() << "updated " << path;
    return;
  }
  const GoldenTrace want = read_golden(path);
  if (::testing::Test::HasFailure()) return;  // missing file already reported
  ASSERT_EQ(want.meta.size(), got.meta.size());
  for (std::size_t i = 0; i < want.meta.size(); ++i) {
    EXPECT_EQ(want.meta[i].first, got.meta[i].first);
    EXPECT_EQ(want.meta[i].second, got.meta[i].second)
        << "scorecard counter '" << want.meta[i].first << "' drifted";
  }
  ASSERT_EQ(want.lines.size(), got.lines.size()) << "decision count drifted";
  for (std::size_t i = 0; i < want.lines.size(); ++i) {
    SCOPED_TRACE("decision " + std::to_string(i));
    EXPECT_EQ(want.lines[i].stream, got.lines[i].stream);
    EXPECT_EQ(want.lines[i].seq, got.lines[i].seq);
    EXPECT_EQ(want.lines[i].frame, got.lines[i].frame);
    EXPECT_EQ(want.lines[i].truth, got.lines[i].truth);
    EXPECT_EQ(want.lines[i].pred, got.lines[i].pred) << "a verdict flipped";
    EXPECT_EQ(want.lines[i].warn, got.lines[i].warn);
    EXPECT_EQ(want.lines[i].source, got.lines[i].source) << "a gate reason changed";
    EXPECT_NEAR(want.lines[i].prob, got.lines[i].prob, 2e-3);
    EXPECT_EQ(want.lines[i].weather, got.lines[i].weather) << "model lineage drifted";
    EXPECT_EQ(want.lines[i].epoch, got.lines[i].epoch) << "switch-epoch lineage drifted";
  }
}

core::SafeCrossConfig tiny_config() {
  core::SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  return cfg;
}

std::unique_ptr<core::SafeCross> engine_with(const std::vector<dataset::Weather>& weathers) {
  auto sc = std::make_unique<core::SafeCross>(tiny_config());
  for (dataset::Weather w : weathers) {
    models::SlowFastConfig mc = tiny_config().model;
    mc.init_seed = 100u + static_cast<std::uint64_t>(w);
    sc->set_model(w, std::make_unique<models::SlowFast>(mc));
  }
  return sc;
}

void append_scorecard_meta(GoldenTrace& trace, const core::StreamScorecard& s) {
  trace.meta.emplace_back("decisions", static_cast<long long>(s.decisions()));
  trace.meta.emplace_back("warnings", static_cast<long long>(s.warnings()));
  trace.meta.emplace_back("correct", static_cast<long long>(s.correct()));
  trace.meta.emplace_back("missed", static_cast<long long>(s.missed_threats()));
  trace.meta.emplace_back("false_warn", static_cast<long long>(s.false_warnings()));
  trace.meta.emplace_back("fail_safe", static_cast<long long>(s.fail_safe_decisions()));
  trace.meta.emplace_back("opportunities",
                          static_cast<long long>(s.decision_opportunities()));
  for (int i = 0; i < runtime::kDecisionSourceCount; ++i) {
    trace.meta.emplace_back(
        "src" + std::to_string(i),
        static_cast<long long>(s.fail_safe_by_source(static_cast<runtime::DecisionSource>(i))));
  }
}

/// One `d` line per recorded decision of stream `stream`.
void append_trace_lines(GoldenTrace& got, int stream,
                        const std::vector<serving::DecisionRecord>& trace) {
  for (std::size_t s = 0; s < trace.size(); ++s) {
    TraceLine l;
    l.stream = stream;
    l.seq = s;
    l.frame = trace[s].frame;
    l.truth = trace[s].danger_truth ? 1 : 0;
    l.pred = trace[s].predicted_class;
    l.warn = trace[s].warn ? 1 : 0;
    l.source = static_cast<int>(trace[s].source);
    l.prob = trace[s].prob_danger;
    l.weather = static_cast<int>(trace[s].model_weather);
    l.epoch = static_cast<int>(trace[s].epoch);
    got.lines.push_back(l);
  }
}

TEST(GoldenTrace, MonitorUnderFaultsMatchesSnapshot) {
  auto sc = engine_with({dataset::Weather::Daytime});
  serving::StreamServerConfig cfg;
  cfg.frames = 30 * 240;
  cfg.record_traces = true;

  serving::StreamConfig cam;
  cam.name = "monitor";
  cam.weather = dataset::Weather::Daytime;
  cam.sim_seed = 424242;
  cam.collector_seed = 424244;
  cam.fault_seed = 424243;
  cam.faults.drop_prob = 0.02;
  cam.faults.freeze_prob = 0.02;
  cam.faults.noise_prob = 0.01;
  cam.faults.blackout_prob = 0.002;
  cam.faults.blackout_frames = 20;
  cfg.streams.push_back(cam);

  serving::StreamServer server(*sc, cfg);
  server.run_sequential();

  GoldenTrace got;
  append_trace_lines(got, 0, server.stream(0).trace());
  const core::StreamScorecard& scorecard = server.stream(0).scorecard();
  append_scorecard_meta(got, scorecard);
  ASSERT_GT(got.lines.size(), 0u) << "the scenario produced no decisions to pin";
  EXPECT_GT(scorecard.fail_safe_decisions(), 0u)
      << "the fault plan should force some conservative gates";
  EXPECT_GT(scorecard.model_decisions(), 0u)
      << "the snapshot must pin real classifier verdicts";
  check_against_golden("monitor_daytime_faults.txt", got);
}

TEST(GoldenTrace, MultiStreamServingMatchesSnapshot) {
  auto sc = engine_with({dataset::Weather::Daytime, dataset::Weather::Rain});
  serving::StreamServerConfig cfg;
  cfg.frames = 30 * 150;
  cfg.record_traces = true;

  serving::StreamConfig day;
  day.name = "day";
  day.weather = dataset::Weather::Daytime;
  day.sim_seed = 515151;
  day.collector_seed = 515152;
  cfg.streams.push_back(day);

  serving::StreamConfig rain = day;
  rain.name = "rain";
  rain.weather = dataset::Weather::Rain;
  rain.sim_seed = 525252;
  rain.collector_seed = 525253;
  cfg.streams.push_back(rain);

  serving::StreamConfig switching = day;
  switching.name = "switching";
  switching.sim_seed = 535353;
  switching.collector_seed = 535354;
  switching.faults.drop_prob = 0.02;
  switching.faults.freeze_prob = 0.01;
  switching.fault_seed = 535355;
  switching.model_schedule.push_back({cfg.frames / 2, dataset::Weather::Rain, 120.0});
  cfg.streams.push_back(switching);

  serving::StreamServer server(*sc, cfg);
  // The sequential reference is the pinned path: the parity suite ties
  // the batched server to it bit-for-bit, so one snapshot covers both.
  server.run_sequential();

  GoldenTrace got;
  for (std::size_t i = 0; i < server.stream_count(); ++i) {
    append_trace_lines(got, static_cast<int>(i), server.stream(i).trace());
    append_scorecard_meta(got, server.stream(i).scorecard());
  }
  ASSERT_GT(got.lines.size(), 0u) << "the scenario produced no decisions to pin";
  std::size_t model_decisions = 0;
  for (std::size_t i = 0; i < server.stream_count(); ++i) {
    model_decisions += server.stream(i).scorecard().model_decisions();
  }
  EXPECT_GT(model_decisions, 0u) << "the snapshot must pin real classifier verdicts";
  check_against_golden("multistream_mixed.txt", got);
}

// The durability layer end to end, pinned: a durable serving run is
// killed mid-journal-append (torn tail on disk), a fresh server recovers
// from the damaged directory and finishes, and the concatenated decision
// stream plus the structured recovery report must match this snapshot.
// The kill point is frame-indexed through the deterministic append
// stream, so the scenario replays bit-identically on every machine.
TEST(GoldenTrace, ServerKillRecoverMatchesSnapshot) {
  namespace fs = std::filesystem;
  auto sc = engine_with({dataset::Weather::Daytime, dataset::Weather::Rain});

  const fs::path dir =
      fs::temp_directory_path() / ("safecross_golden_kill_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  serving::StreamServerConfig cfg;
  cfg.frames = 30 * 60;
  cfg.record_traces = true;
  cfg.shed_on_overload = false;
  serving::StreamConfig day;
  day.name = "day";
  day.weather = dataset::Weather::Daytime;
  day.sim_seed = 87000;
  day.collector_seed = 87001;
  day.fault_seed = 87002;
  cfg.streams.push_back(day);
  serving::StreamConfig rain;
  rain.name = "rain";
  rain.weather = dataset::Weather::Rain;
  rain.sim_seed = 87010;
  rain.collector_seed = 87011;
  rain.fault_seed = 87012;
  cfg.streams.push_back(rain);
  cfg.durability.dir = dir;
  cfg.durability.snapshot_every_decisions = 8;

  // The 8th append is decision 8 (seq 7 of the day stream): recovery
  // replays 7 journaled decisions and drops a torn tail.
  runtime::CrashInjector injector;
  injector.arm(runtime::CrashPoint::MidJournalAppend, 8);
  cfg.durability.crash = &injector;
  bool crashed = false;
  {
    serving::StreamServer doomed(*sc, cfg);
    try {
      doomed.run_sequential();
    } catch (const runtime::CrashInjected&) {
      crashed = true;
    }
  }
  ASSERT_TRUE(crashed) << "the scripted kill never fired";
  injector.disarm();

  serving::StreamServer server(*sc, cfg);
  const serving::RecoveryReport report = server.recover();
  server.run_sequential();

  GoldenTrace got;
  got.meta = {
      {"recovered_from_snapshot", report.recovered_from_snapshot ? 1 : 0},
      {"snapshot_generation", static_cast<long long>(report.snapshot_generation)},
      {"journal_records", static_cast<long long>(report.journal_records)},
      {"journal_pending", static_cast<long long>(report.journal_pending)},
      {"journal_torn_tail", report.journal_torn_tail ? 1 : 0},
  };
  for (std::size_t i = 0; i < server.stream_count(); ++i) {
    append_trace_lines(got, static_cast<int>(i), server.stream(i).trace());
    append_scorecard_meta(got, server.stream(i).scorecard());
  }
  fs::remove_all(dir);
  ASSERT_GT(got.lines.size(), 0u) << "the scenario produced no decisions to pin";
  EXPECT_GT(report.journal_records, 0u) << "the kill fired before anything was journaled";
  check_against_golden("server_kill_recover.txt", got);
}

// The self-healing loop end to end, pinned: a durable single-stream run
// under camera drift latches Miscalibrated (conservative warns flow with
// DecisionSource::FailSafeMiscalibrated), recalibrates on cadence, is
// killed mid-journal-append during the drift window, recovers from the
// damaged directory — replaying the journaled calibration lineage — and
// finishes. Beyond the decision sources it pins the recalibration
// counters.
TEST(GoldenTrace, DriftRecoverMatchesSnapshot) {
  namespace fs = std::filesystem;
  auto sc = engine_with({dataset::Weather::Daytime});

  const fs::path dir =
      fs::temp_directory_path() / ("safecross_golden_drift_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  serving::StreamServerConfig cfg;
  cfg.frames = 30 * 120;
  cfg.record_traces = true;
  cfg.shed_on_overload = false;
  serving::StreamConfig day;
  day.name = "drift-day";
  day.weather = dataset::Weather::Daytime;
  day.sim_seed = 88000;
  day.collector_seed = 88001;
  day.fault_seed = 88002;
  day.faults.geometry.drift_px_per_frame = 0.04;  // 2.4 px per 60-frame check
  day.faults.geometry.drift_stop_frame = 1800;
  day.recalib.enabled = true;
  day.recalib.check_every_frames = 60;
  // Long modeled solve: most of the drift window rides with the
  // Miscalibrated latch on, so opportunities pin conservative warns.
  day.recalib.solve_latency_frames = 50;
  cfg.streams.push_back(day);
  cfg.durability.dir = dir;
  cfg.durability.snapshot_every_decisions = 4;

  runtime::CrashInjector injector;
  injector.arm(runtime::CrashPoint::MidJournalAppend, 5);
  cfg.durability.crash = &injector;
  bool crashed = false;
  {
    serving::StreamServer doomed(*sc, cfg);
    try {
      doomed.run_sequential();
    } catch (const runtime::CrashInjected&) {
      crashed = true;
    }
  }
  ASSERT_TRUE(crashed) << "the scripted kill never fired";
  injector.disarm();

  serving::StreamServer server(*sc, cfg);
  const serving::RecoveryReport report = server.recover();
  server.run_sequential();

  const runtime::RecalibrationLoop* loop = server.stream(0).recalibration();
  ASSERT_NE(loop, nullptr);

  GoldenTrace got;
  got.meta.emplace_back("recovered_from_snapshot", report.recovered_from_snapshot ? 1 : 0);
  got.meta.emplace_back("journal_records", static_cast<long long>(report.journal_records));
  got.meta.emplace_back("journal_pending", static_cast<long long>(report.journal_pending));
  got.meta.emplace_back(
      "journal_pending_recalibrations",
      static_cast<long long>(report.journal_pending_recalibrations));
  got.meta.emplace_back("episodes",
                        static_cast<long long>(loop->miscalibration_episodes()));
  got.meta.emplace_back("recalibrations", static_cast<long long>(loop->recalibrations()));
  got.meta.emplace_back("estimates_rejected",
                        static_cast<long long>(loop->estimates_rejected()));
  got.meta.emplace_back("checks_run", static_cast<long long>(loop->checks_run()));
  append_trace_lines(got, 0, server.stream(0).trace());
  append_scorecard_meta(got, server.stream(0).scorecard());
  fs::remove_all(dir);
  ASSERT_GT(got.lines.size(), 0u) << "the scenario produced no decisions to pin";
  EXPECT_GT(loop->recalibrations(), 0u) << "drift never forced a recalibration";
  EXPECT_GT(server.stream(0).scorecard().fail_safe_by_source(
                runtime::DecisionSource::FailSafeMiscalibrated),
            0u)
      << "the snapshot must pin a FailSafeMiscalibrated conservative warn";
  EXPECT_GT(server.stream(0).scorecard().model_decisions(), 0u)
      << "the snapshot must pin recovered model verdicts";
  check_against_golden("drift_recover.txt", got);
}

// The serving-path switching layer end to end, pinned with full model
// lineage: a durable BATCHED run under SwitchMode::Pipelined rides a
// three-weather switch storm, is killed right after a SwitchBegin record
// becomes durable (a dangling mid-switch Begin on disk), recovers
// against the damaged directory — closing the Begin with a
// reason=closed-by-recovery Abort — and finishes, still batched and
// pipelined. Every decision line carries (weather, epoch) lineage, so a
// refactor that serves one window under the wrong model or lets a batch
// straddle a switch epoch diffs here even when the verdict happens to
// survive. Timing-dependent counters (journal progress at the kill,
// snapshot generation, switch commit tallies) are deliberately NOT
// pinned: thread scheduling moves them without moving any verdict.
TEST(GoldenTrace, SwitchStormRecoverMatchesSnapshot) {
  namespace fs = std::filesystem;
  auto sc = engine_with({dataset::Weather::Daytime, dataset::Weather::Rain,
                         dataset::Weather::Snow});

  const fs::path dir =
      fs::temp_directory_path() / ("safecross_golden_storm_" + std::to_string(::getpid()));
  fs::remove_all(dir);

  serving::StreamServerConfig cfg;
  cfg.frames = 3600;
  cfg.record_traces = true;
  cfg.shed_on_overload = false;
  cfg.queue_capacity = 2;
  cfg.switch_mode = serving::SwitchMode::Pipelined;
  cfg.model_cache.capacity_models = 2;  // three weathers force evictions
  cfg.model_cache.bytes_scale = 1.0 / 4096.0;
  cfg.model_cache.executor.bandwidth_gbps = 64.0;
  cfg.model_cache.executor.compute_scale = 0.001;
  const dataset::Weather cycle[2][3] = {
      {dataset::Weather::Rain, dataset::Weather::Snow, dataset::Weather::Daytime},
      {dataset::Weather::Snow, dataset::Weather::Daytime, dataset::Weather::Rain}};
  for (std::uint64_t i = 0; i < 2; ++i) {
    serving::StreamConfig s;
    s.name = i == 0 ? "storm-day" : "storm-rain";
    s.weather = i == 0 ? dataset::Weather::Daytime : dataset::Weather::Rain;
    s.sim_seed = 88000 + 10 * i;
    s.collector_seed = 88000 + 10 * i + 1;
    s.fault_seed = 88000 + 10 * i + 2;
    for (std::size_t k = 0; 200 + 150 * k < cfg.frames; ++k) {
      s.model_schedule.push_back({200 + 150 * k, cycle[i][k % 3], 0.0});
    }
    cfg.streams.push_back(s);
  }
  cfg.durability.dir = dir;
  cfg.durability.snapshot_every_decisions = 8;

  runtime::CrashInjector injector;
  injector.arm(runtime::CrashPoint::AfterSwitchBegin, 2);
  cfg.durability.crash = &injector;
  bool crashed = false;
  {
    serving::StreamServer doomed(*sc, cfg);
    try {
      doomed.run();
    } catch (const runtime::CrashInjected&) {
      crashed = true;
    }
  }
  ASSERT_TRUE(crashed) << "the scripted mid-switch kill never fired";
  injector.disarm();

  serving::StreamServer server(*sc, cfg);
  const serving::RecoveryReport report = server.recover();
  server.run();

  EXPECT_GE(report.switches_aborted_on_recovery, 1u)
      << "the mid-switch kill must leave a dangling Begin for recovery to close";
  EXPECT_GE(server.switches_committed(), 1u) << "the resumed storm must commit switches";

  GoldenTrace got;
  for (std::size_t i = 0; i < server.stream_count(); ++i) {
    append_trace_lines(got, static_cast<int>(i), server.stream(i).trace());
    append_scorecard_meta(got, server.stream(i).scorecard());
  }
  fs::remove_all(dir);
  ASSERT_GT(got.lines.size(), 0u) << "the scenario produced no decisions to pin";
  std::size_t epochs_pinned = 0;
  for (const TraceLine& l : got.lines) epochs_pinned += l.epoch > 0 ? 1 : 0;
  EXPECT_GT(epochs_pinned, 0u) << "the snapshot must pin post-switch lineage";
  check_against_golden("switch_storm_recover.txt", got);
}

}  // namespace
}  // namespace safecross

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      safecross::g_update_golden = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
