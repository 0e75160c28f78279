// Drift sweep — geometric camera faults against the self-healing
// calibration loop. For each drift rate the same seeded geometric fault
// sequence (slow extrinsic drift + jitter) is replayed against two arms:
//   * no-recalib — the drifting camera is never corrected: homography
//     projections decay and model verdicts quietly rot;
//   * recalib    — the online recalibration loop re-estimates the view
//     perturbation on cadence, warns conservatively while miscalibrated
//     (DecisionSource::FailSafeMiscalibrated) and swaps corrected
//     image->grid homographies back in after the modeled solve latency.
// Reports availability, missed/false-warning rates, recalibration
// counters and the residual view drift at end of run per arm, and writes
// the sweep as JSON (default BENCH_drift.json).
//
// Parity guard: the zero-drift/no-recalib arm must be bit-identical to a
// plain run without any injector — the geometry machinery must be free
// when disabled. parity_ok == false fails the process (and the CI gate).
//
// Usage: bench_drift [--frames N] [--json PATH]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/offline.h"
#include "serving/stream_server.h"

using namespace safecross;
using namespace safecross::core;

namespace {

struct RunResult {
  std::string policy;
  double drift_rate = 0.0;
  std::size_t frames = 0;
  std::size_t decisions = 0;
  std::size_t opportunities = 0;
  std::size_t model_decisions = 0;
  std::size_t fail_safe = 0;
  std::size_t miscal_warns = 0;
  std::size_t warnings = 0;
  std::size_t missed_threats = 0;
  std::size_t false_warnings = 0;
  std::size_t episodes = 0;
  std::size_t recalibrations = 0;
  std::size_t estimates_rejected = 0;
  double residual_drift_px = 0.0;  // applied view vs true perturbation, end of run
  int uncaught_exceptions = 0;

  double availability() const {
    return opportunities == 0 ? 1.0
                              : static_cast<double>(decisions) / static_cast<double>(opportunities);
  }
  double model_availability() const {
    return opportunities == 0
               ? 1.0
               : static_cast<double>(model_decisions) / static_cast<double>(opportunities);
  }
  double missed_rate() const {
    return decisions == 0 ? 0.0
                          : static_cast<double>(missed_threats) / static_cast<double>(decisions);
  }
  double false_warning_rate() const {
    return decisions == 0 ? 0.0
                          : static_cast<double>(false_warnings) / static_cast<double>(decisions);
  }
};

runtime::FaultPlan plan_for_drift(double px_per_frame, std::size_t frames) {
  runtime::FaultPlan plan;
  plan.geometry.drift_px_per_frame = px_per_frame;
  // Drift through the first two thirds of the run, then hold: the tail
  // shows whether the recalib arm actually settles back to model verdicts.
  plan.geometry.drift_stop_frame = frames * 2 / 3;
  return plan;
}

/// Serve one daytime stream for `frames` frame slots (the sequential
/// reference path at K = 1) and return the server for its scorecard.
std::unique_ptr<serving::StreamServer> serve(SafeCross& sc, const serving::StreamConfig& stream,
                                             std::size_t frames) {
  serving::StreamServerConfig cfg;
  cfg.frames = frames;
  cfg.streams.push_back(stream);
  auto server = std::make_unique<serving::StreamServer>(sc, cfg);
  server->run_sequential();
  return server;
}

serving::StreamConfig daytime_stream(std::uint64_t sim_seed) {
  serving::StreamConfig stream;
  stream.weather = dataset::Weather::Daytime;
  stream.sim_seed = sim_seed;
  stream.collector_seed = sim_seed + 1;
  return stream;
}

void read_scorecard(const core::StreamScorecard& s, RunResult& r) {
  r.decisions = s.decisions();
  r.opportunities = s.decision_opportunities();
  r.model_decisions = s.model_decisions();
  r.fail_safe = s.fail_safe_decisions();
  r.miscal_warns = s.fail_safe_by_source(runtime::DecisionSource::FailSafeMiscalibrated);
  r.warnings = s.warnings();
  r.missed_threats = s.missed_threats();
  r.false_warnings = s.false_warnings();
}

RunResult run_arm(SafeCross& sc, bool recalib, double drift_rate, std::size_t frames,
                  std::uint64_t sim_seed) {
  RunResult r;
  r.policy = recalib ? "recalib" : "no-recalib";
  r.drift_rate = drift_rate;
  r.frames = frames;
  try {
    serving::StreamConfig stream = daytime_stream(sim_seed);
    stream.faults = plan_for_drift(drift_rate, frames);
    // Same injector seed in both arms: the drift trajectory is replayed
    // bit-for-bit, so any scorecard difference is the loop's doing.
    stream.fault_seed = 0xD21F7u;
    stream.recalib.enabled = recalib;
    stream.recalib.check_every_frames = 60;
    const auto server = serve(sc, stream, frames);
    const serving::StreamContext& ctx = server->stream(0);
    read_scorecard(ctx.scorecard(), r);
    const runtime::RecalibrationLoop* loop = ctx.recalibration();
    const vision::Homography applied =
        loop != nullptr ? loop->applied_view() : vision::Homography();
    const vision::Homography truth =
        ctx.injector() != nullptr ? ctx.injector()->view_perturbation() : vision::Homography();
    r.residual_drift_px = runtime::view_drift_px(applied, truth, ctx.config().recalib.frame_width,
                                                 ctx.config().recalib.frame_height);
    if (loop != nullptr) {
      r.episodes = loop->miscalibration_episodes();
      r.recalibrations = loop->recalibrations();
      r.estimates_rejected = loop->estimates_rejected();
    }
  } catch (const std::exception& e) {
    ++r.uncaught_exceptions;
    std::printf("  !! uncaught exception (%s, drift %.3f): %s\n", r.policy.c_str(), drift_rate,
                e.what());
  }
  return r;
}

/// Plain run with no fault plan at all: the oracle for the parity guard.
RunResult run_plain(SafeCross& sc, std::size_t frames, std::uint64_t sim_seed) {
  RunResult r = {};
  r.policy = "plain";
  r.frames = frames;
  const auto server = serve(sc, daytime_stream(sim_seed), frames);
  read_scorecard(server->stream(0).scorecard(), r);
  return r;
}

void print_result(const RunResult& r) {
  std::printf("  %6.3f  %-10s %8zu %7.3f %7.3f %8zu %8zu %6zu %6zu %8.2f %5d\n", r.drift_rate,
              r.policy.c_str(), r.decisions, r.availability(), r.model_availability(),
              r.miscal_warns, r.recalibrations, r.missed_threats, r.false_warnings,
              r.residual_drift_px, r.uncaught_exceptions);
}

void json_result(std::FILE* f, const RunResult& r, bool last) {
  std::fprintf(f,
               "    {\"drift_px_per_frame\": %.4f, \"policy\": \"%s\", \"frames\": %zu, "
               "\"decisions\": %zu, \"opportunities\": %zu, \"model_decisions\": %zu, "
               "\"fail_safe_decisions\": %zu, \"miscalibrated_warns\": %zu, "
               "\"warnings\": %zu, \"missed_threats\": %zu, \"false_warnings\": %zu, "
               "\"episodes\": %zu, \"recalibrations\": %zu, \"estimates_rejected\": %zu, "
               "\"availability\": %.6f, \"model_availability\": %.6f, "
               "\"missed_threat_rate\": %.6f, \"false_warning_rate\": %.6f, "
               "\"residual_drift_px\": %.4f, \"uncaught_exceptions\": %d}%s\n",
               r.drift_rate, r.policy.c_str(), r.frames, r.decisions, r.opportunities,
               r.model_decisions, r.fail_safe, r.miscal_warns, r.warnings, r.missed_threats,
               r.false_warnings, r.episodes, r.recalibrations, r.estimates_rejected,
               r.availability(), r.model_availability(), r.missed_rate(),
               r.false_warning_rate(), r.residual_drift_px, r.uncaught_exceptions, last ? "" : ",");
}

bool scorecards_equal(const RunResult& a, const RunResult& b) {
  return a.decisions == b.decisions && a.opportunities == b.opportunities &&
         a.model_decisions == b.model_decisions && a.fail_safe == b.fail_safe &&
         a.warnings == b.warnings && a.missed_threats == b.missed_threats &&
         a.false_warnings == b.false_warnings;
}

}  // namespace

int main(int argc, char** argv) {
  bench::quiet_logs();
  std::size_t frames = 30 * 180;  // three simulated minutes per arm
  std::string json_path = "BENCH_drift.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      frames = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::printf("usage: %s [--frames N] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header("Drift: training the daytime model");
  dataset::BuildRequest req;
  req.target_segments = bench::scaled(60);
  req.max_sim_hours = 4.0;
  req.seed = 2022;
  const auto day = dataset::build_dataset(req);
  SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  SafeCross sc(cfg);
  core::train_basic(sc, bench::ptrs(day.segments), {.epochs = 3});
  std::printf("  trained on %zu daytime segments, %zu frames per arm\n", day.segments.size(),
              frames);

  bench::print_header("Parity guard: geometry disabled must be free");
  const std::uint64_t sim_seed = 4242;
  const RunResult plain = run_plain(sc, frames, sim_seed);
  const RunResult inert = run_arm(sc, /*recalib=*/false, 0.0, frames, sim_seed);
  const bool parity_ok = scorecards_equal(plain, inert) && inert.uncaught_exceptions == 0;
  std::printf("  zero-drift/no-recalib vs plain run: %s\n",
              parity_ok ? "bit-identical scorecards" : "DIVERGED (gate will fail)");

  bench::print_header("Drift sweep: uncorrected decay vs self-healing recalibration");
  std::printf("  %6s  %-10s %8s %7s %7s %8s %8s %6s %6s %8s %5s\n", "drift", "policy",
              "decisions", "avail", "mavail", "miscal-w", "recalibs", "missed", "false-w",
              "resid-px", "exc");
  const double rates[] = {0.0, 0.03, 0.08};
  std::vector<RunResult> results;
  results.push_back(plain);
  int total_exceptions = 0;
  double worst_recalib_mavail = 1.0;
  double worst_norecalib_resid = 0.0;
  for (const double rate : rates) {
    const RunResult norecalib =
        rate == 0.0 ? inert : run_arm(sc, /*recalib=*/false, rate, frames, sim_seed);
    const RunResult recalib = run_arm(sc, /*recalib=*/true, rate, frames, sim_seed);
    print_result(norecalib);
    print_result(recalib);
    results.push_back(norecalib);
    results.push_back(recalib);
    total_exceptions += norecalib.uncaught_exceptions + recalib.uncaught_exceptions;
    if (rate > 0.0) {
      worst_recalib_mavail = std::min(worst_recalib_mavail, recalib.model_availability());
      worst_norecalib_resid = std::max(worst_norecalib_resid, norecalib.residual_drift_px);
    }
  }

  std::printf("\n  verdict: %d uncaught exceptions; recalib model-availability floor %.3f\n"
              "  across drifting arms (uncorrected residual reaches %.1f px).\n",
              total_exceptions, worst_recalib_mavail, worst_norecalib_resid);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"drift\",\n  \"frames_per_run\": %zu,\n", frames);
  std::fprintf(f, "  \"parity_ok\": %s,\n", parity_ok ? "true" : "false");
  std::fprintf(f, "  \"uncaught_exceptions_total\": %d,\n", total_exceptions);
  std::fprintf(f, "  \"model_availability_worst_drift_recalib\": %.6f,\n", worst_recalib_mavail);
  std::fprintf(f, "  \"runs\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    json_result(f, results[i], i + 1 == results.size());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", json_path.c_str());
  return (total_exceptions == 0 && parity_ok) ? 0 : 1;
}
