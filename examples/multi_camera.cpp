// Multi-camera quickstart: four simulated intersections served by ONE
// shared inference engine through the StreamServer — ready 32-frame
// windows from all cameras are micro-batched into single (N,1,T,H,W)
// forward passes, verdicts scatter back to per-stream scorecards.
// One camera runs under a fault plan and one has its producer crash
// mid-run (absorbed by supervised restart) to show per-stream isolation.
//
// Act two scales the same idea out: a FleetController places six cameras
// across two StreamServer shards, a planned fault kills one shard
// mid-journal-append, and the controller detects the death by missed
// heartbeats, recovers the durable dir (replay damage and all) and
// re-places the orphaned streams — without changing a single verdict.

#include <cstdio>
#include <filesystem>
#include <iostream>

#include "common/logging.h"
#include "core/offline.h"
#include "dataset/builder.h"
#include "fleet/controller.h"
#include "serving/stream_server.h"

using namespace safecross;

int main() {
  set_log_level(LogLevel::Warn);

  // Train the daytime basic model once; every camera shares it.
  dataset::BuildRequest req;
  req.weather = dataset::Weather::Daytime;
  req.target_segments = 120;
  req.seed = 5;
  const auto day = dataset::build_dataset(req);
  std::vector<const dataset::VideoSegment*> train;
  for (const auto& s : day.segments) train.push_back(&s);

  core::SafeCross sc;
  std::printf("training on %zu segments...\n", train.size());
  core::train_basic(sc, train, {.epochs = 4});

  // Four cameras, each its own intersection (fresh seeds), multiplexed
  // onto the one engine.
  serving::StreamServerConfig server_cfg;
  server_cfg.frames = 30 * 120;  // two sim-minutes per camera
  const std::uint64_t seeds[] = {880000, 880001, 880002, 880014};  // live traffic on each
  for (int i = 0; i < 4; ++i) {
    serving::StreamConfig stream;
    stream.name = "cam" + std::to_string(i);
    stream.weather = dataset::Weather::Daytime;
    stream.sim_seed = seeds[i];
    stream.collector_seed = stream.sim_seed + 1;
    server_cfg.streams.push_back(stream);
  }
  // cam2: a flaky feed — the fail-safe gates turn its bad windows into
  // conservative warnings instead of verdicts from garbage.
  server_cfg.streams[2].faults.drop_prob = 0.05;
  server_cfg.streams[2].faults.freeze_prob = 0.02;
  server_cfg.streams[2].fault_seed = 880777;
  // cam3: its producer thread crashes once; the supervisor restarts it
  // and the restarted incarnation replays the frame — zero verdicts lost.
  server_cfg.streams[3].crash_frames = {900};

  serving::StreamServer server(sc, server_cfg);
  std::printf("serving %zu cameras, %zu frames each...\n\n", server.stream_count(),
              server_cfg.frames);
  server.run();

  std::printf("  %-6s %9s %9s %6s %8s %7s %7s\n", "camera", "windows", "decisions", "warns",
              "accuracy", "failsafe", "down");
  for (std::size_t i = 0; i < server.stream_count(); ++i) {
    const auto& s = server.stream(i).scorecard();
    std::printf("  %-6s %9zu %9zu %6zu %8.3f %7zu %7s\n",
                server.stream(i).config().name.c_str(), server.stream(i).windows_produced(),
                s.decisions(), s.warnings(), s.accuracy(), s.fail_safe_decisions(),
                server.stream_down(i) ? "DOWN" : "up");
  }

  std::size_t full = 0;
  for (const auto& b : server.batch_log()) {
    if (b.size > 1) ++full;
  }
  std::printf("\n  batches fired      %zu (%zu multi-window) — %zu windows total\n",
              server.batch_log().size(), full, server.windows_batched());
  std::printf("  producer crashes   %zu (restarted %zu times, verdicts unchanged)\n",
              server.crashes_injected(), server.stage_restarts());
  std::printf("\nThe batched verdicts are bit-identical to running each camera alone\n"
              "through the sequential path — see tests/test_stream_server.cpp.\n");

  // --- act two: a two-shard fleet survives a shard kill -----------------
  std::printf("\nfleet failover demo: 6 cameras on 2 shards, one shard killed\n"
              "mid-journal-append...\n\n");
  namespace fs = std::filesystem;
  const fs::path scratch = fs::temp_directory_path() / "safecross_multi_camera_fleet";
  fs::remove_all(scratch);

  fleet::FleetConfig fleet_cfg;
  fleet_cfg.shards = 2;
  fleet_cfg.shard.engine.model.slow_channels = 4;  // tiny untrained engines:
  fleet_cfg.shard.engine.model.fast_channels = 2;  // the demo is the control plane
  fleet_cfg.serving.frames = 30 * 60;
  fleet_cfg.serving.heartbeat_interval_ms = 1.0;
  fleet_cfg.watch_interval_ms = 2.0;
  fleet_cfg.durability_root = scratch;
  fleet_cfg.fault.enabled = true;
  for (int i = 0; i < 6; ++i) {
    serving::StreamConfig stream;
    stream.name = "fleetcam" + std::to_string(i);
    stream.weather = dataset::Weather::Daytime;
    stream.sim_seed = 990000 + 10 * i;
    stream.collector_seed = stream.sim_seed + 1;
    stream.decision_stride = i % 3 == 0 ? 4 : 8;
    stream.priority = static_cast<core::StreamPriority>(i % 3);
    fleet_cfg.streams.push_back(stream);
  }

  fleet::FleetController fleet(fleet_cfg);
  // Kill the first stream-hosting shard on its third journal append; the
  // torn tail this leaves behind is exactly what recover() must absorb.
  fleet.fault().set_plan({{.wave = 0,
                           .victim = 0,
                           .point = runtime::CrashPoint::MidJournalAppend,
                           .nth = 3}});
  fleet.run();
  fleet::print_fleet_report(std::cout, fleet.report());
  std::printf("\nEvery re-placed stream's merged decision sequence is bit-identical\n"
              "to an uninterrupted fleet run — see tests/test_fleet_chaos.cpp.\n");
  fs::remove_all(scratch);
  return 0;
}
