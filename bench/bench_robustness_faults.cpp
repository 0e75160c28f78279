// Robustness sweep — the fault-injection harness applied to one served
// camera stream. For each fault rate the same seeded fault sequence is
// replayed against two policy arms:
//   * baseline  — fail-silent (pre-robustness): a due decision classifies
//     the raw rolling window whenever it is full, gapped or corrupted or
//     not, and consults no health gate (a bench-local StreamContext loop);
//   * fail-safe — the serving path (StreamServer at K = 1): untrustworthy
//     windows produce a conservative warn tagged with a DecisionSource code.
// A final arm, with no frame faults, fails every model swap: the stream's
// scheduled switch dies before warm-up ends, and every decision must run
// fail-safe. The bench exits non-zero if that arm records no switch
// failure, makes no decision, or lets the model make one.
// Reports availability, missed-threat rate and false-warning rate per arm
// and writes the sweep as JSON (default BENCH_robustness.json).
//
// Usage: bench_robustness_faults [--frames N] [--json PATH]

#include <cstdio>
#include <cstring>
#include <exception>
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
  double fault_rate = 0.0;
  std::size_t frames = 0;
  std::size_t decisions = 0;
  std::size_t opportunities = 0;
  std::size_t model_decisions = 0;
  std::size_t fail_safe = 0;
  std::size_t warnings = 0;
  std::size_t missed_threats = 0;
  std::size_t false_warnings = 0;
  std::size_t frames_dropped = 0;
  std::size_t switch_failures = 0;
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

runtime::FaultPlan plan_for_rate(double rate) {
  runtime::FaultPlan plan;
  plan.drop_prob = rate;
  plan.freeze_prob = rate / 2.0;
  plan.noise_prob = rate / 2.0;
  plan.blackout_prob = rate / 100.0;  // rare but long: 45 blind frames
  plan.blackout_frames = 45;
  return plan;
}

serving::StreamConfig stream_for(const runtime::FaultPlan& plan, std::uint64_t sim_seed) {
  serving::StreamConfig stream;
  stream.weather = dataset::Weather::Daytime;
  stream.sim_seed = sim_seed;
  stream.collector_seed = sim_seed + 1;
  stream.faults = plan;
  // Same injector seed in every arm: the fault sequence is replayed
  // bit-for-bit, so any scorecard difference is the policy's doing.
  stream.fault_seed = 0xFA17u;
  return stream;
}

/// The fail-silent baseline: only a full window gates the classifier,
/// even when it is gapped or stale; no health gate is consulted.
void run_fail_silent(SafeCross& sc, serving::StreamContext& ctx, std::size_t frames) {
  const auto full = static_cast<std::size_t>(ctx.config().vp.frames_per_segment);
  while (ctx.frames_run() < frames) {
    const std::optional<serving::ReadyWindow> w = ctx.tick();
    if (!w || ctx.collector().window().size() < full) continue;
    const std::vector<vision::Image> window(ctx.collector().window().begin(),
                                            ctx.collector().window().end());
    const SafeCross::Decision d = sc.classify_as(w->model_weather, window);
    ctx.apply(*w, d.predicted_class, d.prob_danger, d.warn, d.source);
  }
}

void read_stream(const serving::StreamContext& ctx, RunResult& r) {
  const StreamScorecard& s = ctx.scorecard();
  r.decisions = s.decisions();
  r.opportunities = s.decision_opportunities();
  r.model_decisions = s.model_decisions();
  r.fail_safe = s.fail_safe_decisions();
  r.warnings = s.warnings();
  r.missed_threats = s.missed_threats();
  r.false_warnings = s.false_warnings();
  if (const runtime::FaultInjector* injector = ctx.injector()) {
    r.frames_dropped = injector->frames_dropped();
    r.switch_failures = injector->switch_failures();
  }
}

RunResult run_arm(SafeCross& sc, bool fail_safe_policy, double fault_rate,
                  const serving::StreamConfig& stream, int frames) {
  RunResult r;
  r.policy = fail_safe_policy ? "fail-safe" : "baseline";
  r.fault_rate = fault_rate;
  r.frames = static_cast<std::size_t>(frames);
  try {
    if (fail_safe_policy) {
      serving::StreamServerConfig cfg;
      cfg.frames = r.frames;
      cfg.streams.push_back(stream);
      serving::StreamServer server(sc, cfg);
      server.run_sequential();
      read_stream(server.stream(0), r);
    } else {
      serving::StreamContext ctx(stream);
      run_fail_silent(sc, ctx, r.frames);
      read_stream(ctx, r);
    }
  } catch (const std::exception& e) {
    ++r.uncaught_exceptions;
    std::printf("  !! uncaught exception (%s, rate %.2f): %s\n", r.policy.c_str(), fault_rate,
                e.what());
  }
  return r;
}

void print_result(const RunResult& r) {
  std::printf("  %5.2f  %-9s %10zu %7.3f %7.3f %11zu %9.4f %9.4f %6d\n", r.fault_rate,
              r.policy.c_str(), r.decisions, r.availability(), r.model_availability(), r.fail_safe,
              r.missed_rate(), r.false_warning_rate(), r.uncaught_exceptions);
}

void json_result(std::FILE* f, const RunResult& r, bool last) {
  std::fprintf(f,
               "    {\"fault_rate\": %.4f, \"policy\": \"%s\", \"frames\": %zu, "
               "\"decisions\": %zu, \"opportunities\": %zu, \"model_decisions\": %zu, "
               "\"fail_safe_decisions\": %zu, \"warnings\": %zu, \"missed_threats\": %zu, "
               "\"false_warnings\": %zu, \"availability\": %.6f, \"model_availability\": %.6f, "
               "\"missed_threat_rate\": %.6f, \"false_warning_rate\": %.6f, "
               "\"frames_dropped\": %zu, \"switch_failures\": %zu, \"uncaught_exceptions\": %d}%s\n",
               r.fault_rate, r.policy.c_str(), r.frames, r.decisions, r.opportunities,
               r.model_decisions, r.fail_safe, r.warnings, r.missed_threats, r.false_warnings,
               r.availability(), r.model_availability(), r.missed_rate(), r.false_warning_rate(),
               r.frames_dropped, r.switch_failures, r.uncaught_exceptions, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bench::quiet_logs();
  int frames = 30 * 180;  // three simulated minutes per arm
  std::string json_path = "BENCH_robustness.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--frames") == 0 && i + 1 < argc) {
      frames = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::printf("usage: %s [--frames N] [--json PATH]\n", argv[0]);
      return 2;
    }
  }

  bench::print_header("Robustness: training the daytime model");
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
  std::printf("  trained on %zu daytime segments, %d frames per monitor arm\n",
              day.segments.size(), frames);

  bench::print_header("Fault-rate sweep: fail-silent baseline vs fail-safe policy");
  std::printf("  %5s  %-9s %10s %7s %7s %11s %9s %9s %6s\n", "rate", "policy", "decisions",
              "avail", "mavail", "fail-safe", "missed", "false-w", "exc");
  const double rates[] = {0.0, 0.05, 0.10, 0.20};
  std::vector<RunResult> results;
  for (const double rate : rates) {
    const auto stream = stream_for(plan_for_rate(rate), 4242);
    const auto baseline = run_arm(sc, /*fail_safe_policy=*/false, rate, stream, frames);
    const auto failsafe = run_arm(sc, /*fail_safe_policy=*/true, rate, stream, frames);
    print_result(baseline);
    print_result(failsafe);
    results.push_back(baseline);
    results.push_back(failsafe);
  }

  bench::print_header("Model-switch failure: no frame faults, every swap attempt dies");
  // No frame faults, so the dead swap is the only gate that can keep a
  // decision from the model once the window is warm.
  auto hard_plan = plan_for_rate(0.0);
  hard_plan.switch_failure_prob = 1.0;
  auto hard_stream = stream_for(hard_plan, 4242);
  // The scene turns to rain one second in, before warm-up ends: the swap
  // dies, and no decision may trust a model after it.
  hard_stream.model_schedule.push_back({30, dataset::Weather::Rain, 100.0});
  const auto switch_run = run_arm(sc, /*fail_safe_policy=*/true, 0.0, hard_stream, frames);
  print_result(switch_run);
  results.push_back(switch_run);
  const bool switch_failed = switch_run.switch_failures > 0;
  const bool switch_gated = switch_run.decisions > 0 &&
                            switch_run.fail_safe == switch_run.decisions &&
                            switch_run.model_decisions == 0;
  std::printf("  %zu switch failure(s); %zu of %zu decisions ran fail-safe: the intersection\n"
              "  kept its warning service (availability %.3f).\n",
              switch_run.switch_failures, switch_run.fail_safe, switch_run.decisions,
              switch_run.availability());
  if (!switch_failed) {
    std::printf("  !! the switch-failure arm attempted no failing swap\n");
  }
  if (!switch_gated) {
    std::printf("  !! the switch-failure arm made no decisions, or let the model decide\n");
  }

  int total_exceptions = 0;
  std::size_t shrunk = 0;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    total_exceptions += results[i].uncaught_exceptions + results[i + 1].uncaught_exceptions;
    if (results[i + 1].missed_rate() <= results[i].missed_rate() + 1e-9) ++shrunk;
  }
  total_exceptions += switch_run.uncaught_exceptions;
  std::printf("\n  verdict: %d uncaught exceptions across all arms; fail-safe missed-threat\n"
              "  rate <= baseline in %zu/%zu sweep points.\n",
              total_exceptions, shrunk, results.size() / 2);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"robustness_faults\",\n  \"frames_per_run\": %d,\n", frames);
  std::fprintf(f, "  \"uncaught_exceptions_total\": %d,\n  \"runs\": [\n", total_exceptions);
  for (std::size_t i = 0; i < results.size(); ++i) {
    json_result(f, results[i], i + 1 == results.size());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", json_path.c_str());
  return total_exceptions == 0 && switch_failed && switch_gated ? 0 : 1;
}
