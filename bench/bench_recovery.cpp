// Durability overhead vs recovery time — the sweep behind the snapshot
// cadence and fsync policy defaults.
//
// One fixed two-stream workload is run three ways per configuration
// point (snapshot interval x journal fsync policy):
//   * baseline  — no durability: the decisions/sec ceiling.
//   * durable   — journal + snapshots on, uninterrupted: the steady-state
//     overhead an operator pays for crash consistency. Timed twice: on
//     run_sequential(), which commits one journal record per group, and
//     on the batched run() that serves traffic, which commits one group
//     (one write, at most one fsync) per decided batch.
//   * recovery  — the same durable run killed half-way through its
//     journal appends (CrashInjector, torn tail included), then a fresh
//     server recover()s the damaged directory and finishes the run. The
//     recover() call and the resumed run are timed separately: the first
//     is the disk-side cost (snapshot load + journal replay), the second
//     is the deterministic re-derivation of whatever the snapshot
//     cadence let slip past the last checkpoint.
// Every recovered run's decision trace must be bit-identical to the
// baseline — any divergence is a hard failure (nonzero exit), because a
// recovery that changes verdicts has no business being fast.
//
// Reports per-point wall times, overhead %, journal bytes and snapshot
// generations; writes the sweep as JSON (default BENCH_recovery.json).
//
// Usage: bench_recovery [--frames N] [--reps R] [--json PATH]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "models/slowfast.h"
#include "runtime/crash_point.h"
#include "runtime/journal.h"
#include "serving/stream_server.h"

using namespace safecross;
using namespace safecross::serving;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

core::SafeCrossConfig tiny_config() {
  core::SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  return cfg;
}

StreamServerConfig workload(std::size_t frames) {
  StreamServerConfig cfg;
  cfg.frames = frames;
  cfg.record_traces = true;
  cfg.shed_on_overload = false;  // durable runs must lose nothing
  for (std::size_t i = 0; i < 2; ++i) {
    StreamConfig s;
    s.name = "cam" + std::to_string(i);
    s.weather = i == 0 ? dataset::Weather::Daytime : dataset::Weather::Rain;
    s.sim_seed = 87000 + 10 * i;
    s.collector_seed = 87001 + 10 * i;
    s.fault_seed = 87002 + 10 * i;
    cfg.streams.push_back(std::move(s));
  }
  return cfg;
}

struct PointResult {
  std::size_t snapshot_every = 0;
  runtime::FsyncPolicy fsync = runtime::FsyncPolicy::None;
  std::size_t decisions = 0;
  double baseline_wall_ms = 0.0;
  double durable_wall_ms = 0.0;
  double batched_baseline_wall_ms = 0.0;
  double batched_durable_wall_ms = 0.0;
  std::uint64_t batched_journal_syncs = 0;
  std::size_t journal_bytes = 0;
  std::size_t snapshot_generations = 0;
  double recover_ms = 0.0;      // snapshot load + journal replay
  double resume_wall_ms = 0.0;  // killed run's tail, re-derived + deduped
  std::size_t replayed_pending = 0;
  bool recovered_from_snapshot = false;
  bool parity_ok = false;
  int uncaught_exceptions = 0;

  static double overhead_pct(double durable, double baseline) {
    if (baseline <= 0.0) return 0.0;
    return 100.0 * (durable - baseline) / baseline;
  }
  double overhead_pct() const { return overhead_pct(durable_wall_ms, baseline_wall_ms); }
  double batched_overhead_pct() const {
    return overhead_pct(batched_durable_wall_ms, batched_baseline_wall_ms);
  }
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& name)
      : path(fs::current_path() / "bench_recovery_scratch" / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

bool traces_agree(const StreamServer& got, const StreamServer& want) {
  if (got.stream_count() != want.stream_count()) return false;
  for (std::size_t i = 0; i < got.stream_count(); ++i) {
    const auto& gt = got.stream(i).trace();
    const auto& wt = want.stream(i).trace();
    if (gt.size() != wt.size()) return false;
    for (std::size_t s = 0; s < gt.size(); ++s) {
      if (gt[s].frame != wt[s].frame || gt[s].predicted_class != wt[s].predicted_class ||
          gt[s].prob_danger != wt[s].prob_danger || gt[s].warn != wt[s].warn ||
          gt[s].source != wt[s].source) {
        return false;
      }
    }
  }
  return true;
}

std::size_t count_snapshots(const fs::path& dir) {
  std::size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".bin") ++n;
  }
  return n;
}

/// Wall time of one run, sequential or batched.
double timed_run(StreamServer& server, bool batched) {
  const auto t0 = Clock::now();
  batched ? server.run() : server.run_sequential();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

PointResult measure_point(core::SafeCross& sc, const StreamServerConfig& base,
                          const StreamServer& baseline, double baseline_wall_ms,
                          double batched_baseline_wall_ms, std::size_t snapshot_every,
                          runtime::FsyncPolicy fsync, std::size_t reps) {
  PointResult r;
  r.snapshot_every = snapshot_every;
  r.fsync = fsync;
  r.decisions = baseline.total_decisions();
  r.baseline_wall_ms = baseline_wall_ms;
  r.batched_baseline_wall_ms = batched_baseline_wall_ms;
  std::string tag = "s";
  tag += std::to_string(snapshot_every);
  tag += '_';
  tag += runtime::fsync_policy_name(fsync);
  try {
    // Steady-state arm: uninterrupted durable runs, median wall time, on
    // the sequential path and on the batched one. A batched run's verdicts
    // must match the baseline too.
    std::vector<double> walls;
    std::vector<double> batched_walls;
    bool batched_parity = true;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      ScratchDir scratch(tag + "_steady");
      StreamServerConfig cfg = base;
      cfg.durability.dir = scratch.path;
      cfg.durability.snapshot_every_decisions = snapshot_every;
      cfg.durability.journal.fsync = fsync;
      {
        StreamServer server(sc, cfg);
        walls.push_back(timed_run(server, /*batched=*/false));
      }
      if (rep + 1 == reps) {
        r.journal_bytes =
            static_cast<std::size_t>(fs::file_size(scratch.path / "journal.wal"));
        r.snapshot_generations = count_snapshots(scratch.path);
      }
      ScratchDir batched_scratch(tag + "_steady_batched");
      cfg.durability.dir = batched_scratch.path;
      StreamServer server(sc, cfg);
      batched_walls.push_back(timed_run(server, /*batched=*/true));
      r.batched_journal_syncs = server.journal_syncs();
      batched_parity = batched_parity && traces_agree(server, baseline);
    }
    r.durable_wall_ms = median(walls);
    r.batched_durable_wall_ms = median(batched_walls);

    // Recovery arm: kill half-way through the journal appends, then time
    // recover() and the resumed run on a fresh server.
    ScratchDir scratch(tag + "_recover");
    StreamServerConfig cfg = base;
    cfg.durability.dir = scratch.path;
    cfg.durability.snapshot_every_decisions = snapshot_every;
    cfg.durability.journal.fsync = fsync;
    runtime::CrashInjector injector;
    injector.arm(runtime::CrashPoint::MidJournalAppend,
                 std::max<std::size_t>(1, r.decisions / 2));
    cfg.durability.crash = &injector;
    bool killed = false;
    try {
      StreamServer victim(sc, cfg);
      victim.run_sequential();
    } catch (const runtime::CrashInjected&) {
      killed = true;
    }
    cfg.durability.crash = nullptr;
    StreamServer survivor(sc, cfg);
    const auto t0 = Clock::now();
    const RecoveryReport report = survivor.recover();
    const auto t1 = Clock::now();
    survivor.run_sequential();
    const auto t2 = Clock::now();
    r.recover_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.resume_wall_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
    r.replayed_pending = static_cast<std::size_t>(report.journal_pending);
    r.recovered_from_snapshot = report.recovered_from_snapshot;
    r.parity_ok = killed && batched_parity && traces_agree(survivor, baseline);
  } catch (const std::exception& e) {
    ++r.uncaught_exceptions;
    std::printf("  !! uncaught exception (%s): %s\n", tag.c_str(), e.what());
  }
  return r;
}

void print_point(const PointResult& r) {
  std::printf(
      "  %8zu %-7s %6zu %9.1f %9.1f %7.1f%% %9.1f %7.1f%% %6llu %8zu %5zu %8.2f %9.1f %5zu "
      "%6s %4d\n",
      r.snapshot_every, runtime::fsync_policy_name(r.fsync), r.decisions, r.baseline_wall_ms,
      r.durable_wall_ms, r.overhead_pct(), r.batched_durable_wall_ms,
      r.batched_overhead_pct(), static_cast<unsigned long long>(r.batched_journal_syncs),
      r.journal_bytes, r.snapshot_generations, r.recover_ms, r.resume_wall_ms,
      r.replayed_pending, r.parity_ok ? "ok" : "FAIL", r.uncaught_exceptions);
}

void json_point(std::FILE* f, const PointResult& r, bool last) {
  std::fprintf(f,
               "    {\"snapshot_every_decisions\": %zu, \"fsync\": \"%s\", "
               "\"decisions\": %zu, \"baseline_wall_ms\": %.2f, \"durable_wall_ms\": %.2f, "
               "\"overhead_pct\": %.2f, \"batched_baseline_wall_ms\": %.2f, "
               "\"batched_durable_wall_ms\": %.2f, \"batched_overhead_pct\": %.2f, "
               "\"batched_journal_syncs\": %llu, \"journal_bytes\": %zu, "
               "\"snapshot_generations\": %zu, \"recover_ms\": %.3f, "
               "\"resume_wall_ms\": %.2f, \"replayed_pending\": %zu, "
               "\"recovered_from_snapshot\": %s, \"parity_ok\": %s, "
               "\"uncaught_exceptions\": %d}%s\n",
               r.snapshot_every, runtime::fsync_policy_name(r.fsync), r.decisions,
               r.baseline_wall_ms, r.durable_wall_ms, r.overhead_pct(),
               r.batched_baseline_wall_ms, r.batched_durable_wall_ms, r.batched_overhead_pct(),
               static_cast<unsigned long long>(r.batched_journal_syncs), r.journal_bytes,
               r.snapshot_generations, r.recover_ms, r.resume_wall_ms, r.replayed_pending,
               r.recovered_from_snapshot ? "true" : "false", r.parity_ok ? "true" : "false",
               r.uncaught_exceptions, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bench::quiet_logs();
  std::size_t frames = 30 * 120;  // two simulated minutes per stream
  std::size_t reps = 3;           // median-of-N wall time per durable arm
  std::string json_path = "BENCH_recovery.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      frames = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = static_cast<std::size_t>(std::atoll(argv[++i]));
      if (reps == 0) reps = 1;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::printf("usage: %s [--frames N] [--reps R] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header("Durability: steady-state overhead vs recovery time");
  // Untrained but deterministically initialised models: the bench measures
  // journaling and checkpoint costs, not verdict quality.
  auto sc = std::make_unique<core::SafeCross>(tiny_config());
  for (dataset::Weather w : {dataset::Weather::Daytime, dataset::Weather::Rain}) {
    models::SlowFastConfig mc = tiny_config().model;
    mc.init_seed = 100u + static_cast<std::uint64_t>(w);
    sc->set_model(w, std::make_unique<models::SlowFast>(mc));
  }

  const StreamServerConfig base = workload(frames);
  std::vector<double> baseline_walls;
  std::vector<double> batched_baseline_walls;
  std::unique_ptr<StreamServer> baseline;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    baseline = std::make_unique<StreamServer>(*sc, base);
    baseline_walls.push_back(timed_run(*baseline, /*batched=*/false));
    StreamServer batched(*sc, base);
    batched_baseline_walls.push_back(timed_run(batched, /*batched=*/true));
  }
  const double baseline_wall_ms = median(baseline_walls);
  const double batched_baseline_wall_ms = median(batched_baseline_walls);

  std::printf("  %zu frames per stream, 2 streams, %zu decisions, median of %zu reps\n",
              frames, baseline->total_decisions(), reps);
  std::printf("  batched baseline %.1f ms (median)\n", batched_baseline_wall_ms);
  std::printf("  %8s %-7s %6s %9s %9s %8s %9s %8s %6s %8s %5s %8s %9s %5s %6s %4s\n",
              "snap", "fsync", "decis", "base-ms", "dur-ms", "overhd", "bdur-ms", "b-ovhd",
              "b-sync", "wal-B", "gens", "recov-ms", "resume-ms", "pend", "parity", "exc");

  std::vector<PointResult> results;
  bool all_parity = true;
  int total_exceptions = 0;
  for (const std::size_t every : {std::size_t{0}, std::size_t{16}, std::size_t{64}}) {
    for (const runtime::FsyncPolicy fsync :
         {runtime::FsyncPolicy::None, runtime::FsyncPolicy::EveryN,
          runtime::FsyncPolicy::Every}) {
      results.push_back(measure_point(*sc, base, *baseline, baseline_wall_ms,
                                      batched_baseline_wall_ms, every, fsync, reps));
      print_point(results.back());
      all_parity = all_parity && results.back().parity_ok;
      total_exceptions += results.back().uncaught_exceptions;
    }
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"recovery\",\n  \"frames_per_stream\": %zu,\n  \"reps\": %zu,\n",
               frames, reps);
  std::fprintf(f, "  \"parity_ok\": %s,\n", all_parity ? "true" : "false");
  std::fprintf(f, "  \"uncaught_exceptions_total\": %d,\n  \"points\": [\n", total_exceptions);
  for (std::size_t i = 0; i < results.size(); ++i) {
    json_point(f, results[i], i + 1 == results.size());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", json_path.c_str());

  std::error_code ec;
  fs::remove_all(fs::current_path() / "bench_recovery_scratch", ec);
  if (!all_parity) {
    std::printf("  !! PARITY FAILURE: a killed-and-recovered run diverged from the\n"
                "     uninterrupted baseline — the timings above are meaningless.\n");
    return 1;
  }
  return total_exceptions == 0 ? 0 : 1;
}
