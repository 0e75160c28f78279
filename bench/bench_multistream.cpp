// Multi-stream serving sweep — aggregate throughput of the batched
// StreamServer vs serving the same cameras without it.
//
// For each K in {1,2,4,8} the same K-camera workload is run three ways:
//   * oracle    — StreamServer::run_sequential(): the single-threaded
//     parity reference (no queues, no threads). Not a deployment mode;
//     it defines the correct verdicts.
//   * solo x K  — K single-stream StreamServer instances run back to
//     back: the "1 stream x K sequential" baseline, i.e. one serving
//     process per camera with no cross-stream batching.
//   * batched   — one StreamServer::run() over all K streams: producer
//     threads feed the deadline-aware micro-batcher, which groups ready
//     windows by weather model and scatters verdicts back per stream.
// Batched and solo verdicts must agree bit-for-bit with the oracle —
// any divergence is a hard failure (nonzero exit), because the parity
// contract is what makes the throughput numbers comparable at all.
//
// Reports wall time, aggregate frames/sec, windows, decisions, batch
// shape stats and engine switches per arm; writes the sweep as JSON
// (default BENCH_multistream.json).
//
// Usage: bench_multistream [--frames N] [--reps R] [--json PATH]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "serving/stream_server.h"

using namespace safecross;
using namespace safecross::serving;

namespace {

struct RunResult {
  std::string mode;
  std::size_t streams = 0;
  std::size_t frames_total = 0;
  std::size_t windows = 0;
  std::size_t decisions = 0;
  std::size_t model_decisions = 0;
  std::size_t batches = 0;
  double avg_batch = 0.0;
  std::size_t shed = 0;
  double wall_ms = 0.0;
  int uncaught_exceptions = 0;

  double fps() const { return wall_ms <= 0.0 ? 0.0 : 1000.0 * frames_total / wall_ms; }
};

core::SafeCrossConfig tiny_config() {
  core::SafeCrossConfig cfg;
  cfg.model.slow_channels = 4;
  cfg.model.fast_channels = 2;
  return cfg;
}

StreamServerConfig config_for(std::size_t streams, std::size_t frames) {
  StreamServerConfig cfg;
  cfg.frames = frames;
  cfg.record_traces = true;
  cfg.shed_on_overload = false;  // parity runs must lose nothing
  for (std::size_t i = 0; i < streams; ++i) {
    StreamConfig s;
    s.name = "cam" + std::to_string(i);
    s.weather = dataset::Weather::Daytime;
    s.sim_seed = 9000 + 10 * i;
    s.collector_seed = 9001 + 10 * i;
    cfg.streams.push_back(std::move(s));
  }
  return cfg;
}

void absorb(RunResult& r, const StreamServer& server) {
  for (std::size_t i = 0; i < server.stream_count(); ++i) {
    r.frames_total += server.stream(i).frames_run();
    r.windows += server.stream(i).windows_produced();
    r.model_decisions += server.stream(i).scorecard().model_decisions();
  }
  r.decisions += server.total_decisions();
  r.batches += server.batch_log().size();
  r.shed += server.windows_shed_total();
}

/// One arm: `mode` selects oracle (run_sequential on the whole config),
/// solo (a fresh single-stream server per camera, run back to back), or
/// batched (one threaded server over all K streams). Each arm runs
/// `reps` times (a server instance runs once, so every rep builds fresh
/// servers) and reports the MEDIAN wall time — single runs on a busy
/// box are too noisy to compare arms. `keep` receives the final rep's
/// servers so the caller can parity-check their traces; determinism
/// makes every rep's verdicts identical, so checking one rep checks all.
RunResult measure(core::SafeCross& sc, const StreamServerConfig& cfg, const std::string& mode,
                  std::size_t reps, std::vector<std::unique_ptr<StreamServer>>& keep) {
  RunResult r;
  r.mode = mode;
  r.streams = cfg.streams.size();
  std::vector<double> walls;
  try {
    for (std::size_t rep = 0; rep < reps; ++rep) {
      keep.clear();
      const auto t0 = std::chrono::steady_clock::now();
      if (mode == "solo") {
        for (const StreamConfig& stream : cfg.streams) {
          StreamServerConfig solo = cfg;
          solo.streams.assign(1, stream);
          keep.push_back(std::make_unique<StreamServer>(sc, solo));
          keep.back()->run();
        }
      } else {
        keep.push_back(std::make_unique<StreamServer>(sc, cfg));
        if (mode == "batched") {
          keep.back()->run();
        } else {
          keep.back()->run_sequential();
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      walls.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    std::sort(walls.begin(), walls.end());
    r.wall_ms = walls[walls.size() / 2];
    std::size_t windows_batched = 0;
    for (const auto& server : keep) {
      absorb(r, *server);
      windows_batched += server->windows_batched();
    }
    r.avg_batch = r.batches == 0 ? 0.0 : static_cast<double>(windows_batched) / r.batches;
  } catch (const std::exception& e) {
    ++r.uncaught_exceptions;
    std::printf("  !! uncaught exception (%s, %zu streams): %s\n", mode.c_str(),
                cfg.streams.size(), e.what());
  }
  return r;
}

/// Bitwise parity of stream i of server a against stream j of server b.
bool streams_agree(const StreamServer& a, std::size_t i, const StreamServer& b, std::size_t j) {
  {
    const auto& at = a.stream(i).trace();
    const auto& bt = b.stream(j).trace();
    if (at.size() != bt.size()) return false;
    for (std::size_t s = 0; s < at.size(); ++s) {
      if (at[s].frame != bt[s].frame || at[s].predicted_class != bt[s].predicted_class ||
          at[s].prob_danger != bt[s].prob_danger || at[s].warn != bt[s].warn ||
          at[s].source != bt[s].source) {
        return false;
      }
    }
  }
  const auto& as = a.stream(i).scorecard();
  const auto& bs = b.stream(j).scorecard();
  return as.decisions() == bs.decisions() && as.warnings() == bs.warnings() &&
         as.missed_threats() == bs.missed_threats() &&
         as.false_warnings() == bs.false_warnings() &&
         as.fail_safe_decisions() == bs.fail_safe_decisions();
}

/// Every stream of `arm` (one K-stream server, or K solo servers in
/// stream order) must match the oracle bit-for-bit.
bool arm_matches_oracle(const std::vector<std::unique_ptr<StreamServer>>& arm,
                        const StreamServer& oracle) {
  std::size_t next = 0;
  for (const auto& server : arm) {
    for (std::size_t i = 0; i < server->stream_count(); ++i, ++next) {
      if (next >= oracle.stream_count() || !streams_agree(*server, i, oracle, next)) return false;
    }
  }
  return next == oracle.stream_count();
}

void print_result(const RunResult& r) {
  std::printf("  %-10s %4zu %9zu %8zu %7zu %7zu %6.2f %5zu %9.1f %9.1f %4d\n",
              r.mode.c_str(), r.streams, r.frames_total, r.windows, r.decisions, r.batches,
              r.avg_batch, r.shed, r.wall_ms, r.fps(), r.uncaught_exceptions);
}

void json_result(std::FILE* f, const RunResult& r, bool last) {
  std::fprintf(f,
               "    {\"mode\": \"%s\", \"streams\": %zu, \"frames_total\": %zu, "
               "\"windows\": %zu, \"decisions\": %zu, \"model_decisions\": %zu, "
               "\"batches\": %zu, \"avg_batch\": %.3f, \"windows_shed\": %zu, "
               "\"wall_ms\": %.2f, \"fps_aggregate\": %.2f, \"uncaught_exceptions\": %d}%s\n",
               r.mode.c_str(), r.streams, r.frames_total, r.windows, r.decisions,
               r.model_decisions, r.batches, r.avg_batch, r.shed, r.wall_ms, r.fps(),
               r.uncaught_exceptions, last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bench::quiet_logs();
  std::size_t frames = 30 * 30;  // half a simulated minute per stream
  std::size_t reps = 5;          // median-of-N wall time per arm
  std::string json_path = "BENCH_multistream.json";
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

  bench::print_header("Multi-stream serving: batched server vs sequential reference");
  // Untrained but deterministically initialised model: the bench measures
  // serving throughput and parity, not verdict quality.
  auto sc = std::make_unique<core::SafeCross>(tiny_config());
  sc->set_model(dataset::Weather::Daytime,
                std::make_unique<models::SlowFast>(tiny_config().model));
  std::printf("  %zu frames per stream, median of %zu reps, shared daytime engine\n", frames,
              reps);
  std::printf("  %-10s %4s %9s %8s %7s %7s %6s %5s %9s %9s %4s\n", "mode", "K", "frames",
              "windows", "decis", "batch", "avgB", "shed", "wall-ms", "fps", "exc");

  std::vector<RunResult> results;
  bool parity_ok = true;
  double solo8_fps = 0.0, bat8_fps = 0.0;
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const StreamServerConfig cfg = config_for(k, frames);
    std::vector<std::unique_ptr<StreamServer>> oracle, solo, batched;
    results.push_back(measure(*sc, cfg, "oracle", reps, oracle));
    print_result(results.back());
    results.push_back(measure(*sc, cfg, "solo", reps, solo));
    print_result(results.back());
    const RunResult& solo_r = results.back();
    results.push_back(measure(*sc, cfg, "batched", reps, batched));
    print_result(results.back());
    const RunResult& bat_r = results.back();

    for (const auto* arm : {&solo, &batched}) {
      if (!arm_matches_oracle(*arm, *oracle.front())) {
        parity_ok = false;
        std::printf("  !! PARITY FAILURE at %zu streams (%s): verdicts diverge from the\n"
                    "     sequential oracle — the throughput numbers are meaningless.\n",
                    k, arm == &solo ? "solo" : "batched");
      }
    }
    if (k == 8) {
      solo8_fps = solo_r.fps();
      bat8_fps = bat_r.fps();
    }
  }

  int total_exceptions = 0;
  for (const auto& r : results) total_exceptions += r.uncaught_exceptions;
  const double speedup8 = solo8_fps > 0.0 ? bat8_fps / solo8_fps : 0.0;
  std::printf("\n  verdict: parity %s; 8-stream batched aggregate %.1f fps vs %.1f fps\n"
              "  solo (1 stream x 8 back-to-back) — %.2fx.\n",
              parity_ok ? "holds bit-for-bit" : "FAILED", bat8_fps, solo8_fps, speedup8);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::printf("error: cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"multistream\",\n  \"frames_per_stream\": %zu,\n  \"reps\": %zu,\n",
               frames, reps);
  std::fprintf(f, "  \"parity_ok\": %s,\n", parity_ok ? "true" : "false");
  std::fprintf(f, "  \"speedup_8stream_vs_solo_sequential\": %.4f,\n", speedup8);
  std::fprintf(f, "  \"uncaught_exceptions_total\": %d,\n  \"runs\": [\n", total_exceptions);
  for (std::size_t i = 0; i < results.size(); ++i) {
    json_result(f, results[i], i + 1 == results.size());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("  wrote %s\n", json_path.c_str());
  return (parity_ok && total_exceptions == 0) ? 0 : 1;
}
