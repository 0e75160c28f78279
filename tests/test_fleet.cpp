// Fleet layer (no-kill paths): placement determinism and minimal
// disruption, degrade-before-drop admission control, and live fleet runs
// whose merged per-stream outcomes must be shard-count-invariant — the
// verdict-portability property failover re-placement relies on.
//
// The kill/failover/parity chaos harness lives in test_fleet_chaos.cpp.

#include "fleet/controller.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace safecross::fleet {
namespace {

using dataset::Weather;
using serving::StreamConfig;

ShardSpec tiny_spec() {
  ShardSpec spec;
  spec.engine.model.slow_channels = 4;
  spec.engine.model.fast_channels = 2;
  spec.weathers = {Weather::Daytime, Weather::Rain};
  return spec;
}

/// K streams with skewed traffic (varied decision_stride → varied
/// weight), mixed weathers and cycling priorities.
std::vector<StreamConfig> make_streams(std::size_t k, std::uint64_t base) {
  std::vector<StreamConfig> streams;
  for (std::size_t i = 0; i < k; ++i) {
    StreamConfig s;
    s.name = "cam" + std::to_string(i);
    s.weather = i % 2 == 0 ? Weather::Daytime : Weather::Rain;
    s.sim_seed = base + 10 * i;
    s.collector_seed = base + 10 * i + 1;
    s.fault_seed = base + 10 * i + 2;
    s.decision_stride = i % 3 == 0 ? 4 : 8;  // skew: every third stream is 2x hot
    s.priority = static_cast<core::StreamPriority>(i % 3);
    streams.push_back(s);
  }
  return streams;
}

FleetConfig fleet_config(std::size_t k, std::size_t shards, std::uint64_t base) {
  FleetConfig cfg;
  cfg.streams = make_streams(k, base);
  cfg.shards = shards;
  cfg.shard = tiny_spec();
  cfg.serving.frames = 1800;  // Rain streams decide late; 900 is a weak scenario
  cfg.serving.queue_capacity = 2;
  cfg.serving.heartbeat_interval_ms = 1.0;
  cfg.watch_interval_ms = 2.0;
  return cfg;
}

// --- placement ---

TEST(FleetPlacement, PlaceAllIsDeterministicAndCoversShards) {
  const auto streams = make_streams(32, 5000);
  Placer placer(PlacementConfig{});
  const auto a = placer.place_all(streams, 4);
  const auto b = placer.place_all(streams, 4);
  EXPECT_EQ(a, b) << "same seed + same streams must place identically";
  std::set<std::size_t> used(a.begin(), a.end());
  EXPECT_GT(used.size(), 1u) << "32 streams all hashed onto one of 4 shards";
  for (std::size_t shard : a) EXPECT_LT(shard, 4u);

  Placer other(PlacementConfig{.policy = PlacementPolicy::Rendezvous, .seed = 99});
  EXPECT_NE(other.place_all(streams, 4), a)
      << "a different seed should shuffle at least one stream";
}

TEST(FleetPlacement, RendezvousIsMinimallyDisruptiveWhenAShardDies) {
  const auto streams = make_streams(32, 6000);
  Placer placer(PlacementConfig{});
  const std::vector<std::size_t> all = {0, 1, 2, 3};
  const std::vector<std::size_t> without2 = {0, 1, 3};
  const std::vector<double> load(4, 0.0);
  for (const StreamConfig& s : streams) {
    const std::size_t before = placer.place(s.name, all, load);
    const std::size_t after = placer.place(s.name, without2, load);
    if (before != 2) {
      EXPECT_EQ(after, before)
          << s.name << " moved although its shard survived — rendezvous must "
          << "only move the dead shard's streams";
    } else {
      EXPECT_NE(after, 2u);
    }
  }
}

TEST(FleetPlacement, LeastLoadedBalancesSkewedWeights) {
  const auto streams = make_streams(64, 7000);
  Placer placer(PlacementConfig{.policy = PlacementPolicy::LeastLoaded});
  const auto assignment = placer.place_all(streams, 4);
  std::vector<double> load(4, 0.0);
  double heaviest = 0.0;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    load[assignment[i]] += stream_weight(streams[i]);
    heaviest = std::max(heaviest, stream_weight(streams[i]));
  }
  const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
  EXPECT_LE(*hi - *lo, heaviest + 1e-9)
      << "greedy least-loaded placement should never spread wider than one stream";
}

// --- admission control ---

TEST(FleetAdmission, CapacityZeroDegradesNothing) {
  auto streams = make_streams(12, 8000);
  Placer placer(PlacementConfig{});
  const auto assignment = placer.place_all(streams, 2);
  const auto report = apply_admission(streams, assignment, 2, AdmissionConfig{});
  EXPECT_EQ(report.streams_degraded, 0u);
  for (const StreamConfig& s : streams) EXPECT_FALSE(s.fleet_degraded);
}

TEST(FleetAdmission, DegradesLowestPriorityFirstAndNeverCritical) {
  auto streams = make_streams(12, 8000);
  Placer placer(PlacementConfig{});
  const auto assignment = placer.place_all(streams, 2);
  // Capacity so tight every shard oversubscribes and must dig past the
  // BestEffort tier into Standard.
  const auto report = apply_admission(streams, assignment, 2, AdmissionConfig{.shard_capacity = 1.0});
  EXPECT_GT(report.streams_degraded, 0u);
  EXPECT_EQ(report.streams_degraded, report.degraded_streams.size());
  std::size_t standard_degraded = 0;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    if (streams[i].priority == core::StreamPriority::Critical) {
      EXPECT_FALSE(streams[i].fleet_degraded) << "Critical streams are never degraded";
    }
    if (streams[i].fleet_degraded && streams[i].priority == core::StreamPriority::Standard) {
      ++standard_degraded;
    }
  }
  // A Standard stream may only be degraded on a shard whose BestEffort
  // tier was already fully sacrificed.
  if (standard_degraded > 0) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (streams[i].priority != core::StreamPriority::BestEffort) continue;
      if (streams[i].fleet_degraded) continue;
      // This untouched BestEffort stream's shard must not have degraded
      // any Standard stream.
      for (std::size_t j = 0; j < streams.size(); ++j) {
        if (assignment[j] == assignment[i] &&
            streams[j].priority == core::StreamPriority::Standard) {
          EXPECT_FALSE(streams[j].fleet_degraded)
              << streams[j].name << " (Standard) degraded while " << streams[i].name
              << " (BestEffort, same shard) kept full fidelity";
        }
      }
    }
  }

  auto again = make_streams(12, 8000);
  const auto report2 = apply_admission(again, assignment, 2, AdmissionConfig{.shard_capacity = 1.0});
  EXPECT_EQ(report.degraded_streams, report2.degraded_streams) << "admission must be deterministic";
}

// --- live fleet runs (no kill) ---

TEST(FleetController, NoKillRunReconcilesAndHeartbeats) {
  FleetController fleet(fleet_config(6, 2, 41000));
  fleet.run();
  const FleetReport& report = fleet.report();
  ASSERT_EQ(report.streams.size(), 6u);
  EXPECT_TRUE(report.reconciled()) << "no-kill fleet failed window/decision reconciliation";
  EXPECT_EQ(report.failovers.size(), 0u);
  EXPECT_EQ(fleet.kills_fired(), 0u);
  EXPECT_EQ(report.windows_shed_total, 0u);
  EXPECT_GT(report.decisions_total, 0u);
  for (std::size_t i = 0; i < report.streams.size(); ++i) {
    const StreamResult& s = report.streams[i];
    EXPECT_EQ(s.moves, 0u);
    EXPECT_EQ(s.first_shard, s.final_shard);
    // Rain scenes may legitimately never surface a waiting subject, so
    // only the Daytime streams are required to have decided.
    if (i % 2 == 0) {
      EXPECT_GT(s.decisions, 0u) << s.name << " never decided";
    }
  }
  for (const ShardSummary& sh : report.shards) {
    if (sh.incarnations == 0) continue;  // shard was never placed a stream
    EXPECT_GT(sh.beats_published, 0u) << "shard " << sh.id << " never heartbeat";
    EXPECT_EQ(sh.windows_shed, 0u);
  }
}

TEST(FleetController, MergedOutcomeIsShardCountInvariant) {
  FleetController one(fleet_config(5, 1, 43000));
  FleetController three(fleet_config(5, 3, 43000));
  one.run();
  three.run();
  const FleetReport& a = one.report();
  const FleetReport& b = three.report();
  ASSERT_EQ(a.streams.size(), b.streams.size());
  for (std::size_t i = 0; i < a.streams.size(); ++i) {
    const StreamResult& x = a.streams[i];
    const StreamResult& y = b.streams[i];
    SCOPED_TRACE(x.name);
    EXPECT_EQ(x.frames_run, y.frames_run);
    EXPECT_EQ(x.windows_produced, y.windows_produced);
    ASSERT_EQ(x.trace.size(), y.trace.size());
    for (std::size_t s = 0; s < x.trace.size(); ++s) {
      SCOPED_TRACE("seq " + std::to_string(s));
      EXPECT_EQ(x.trace[s].frame, y.trace[s].frame);
      EXPECT_EQ(x.trace[s].predicted_class, y.trace[s].predicted_class);
      EXPECT_EQ(x.trace[s].prob_danger, y.trace[s].prob_danger)
          << "verdicts must not depend on which shard served the stream";
      EXPECT_EQ(x.trace[s].warn, y.trace[s].warn);
      EXPECT_EQ(x.trace[s].source, y.trace[s].source);
    }
  }
}

TEST(FleetController, DegradedStreamAnswersEveryDecisionConservatively) {
  FleetConfig cfg = fleet_config(6, 2, 47000);
  cfg.admission.shard_capacity = 1.0;  // every shard oversubscribed
  FleetController fleet(cfg);
  fleet.run();
  const FleetReport& report = fleet.report();
  EXPECT_GT(report.streams_degraded, 0u);
  EXPECT_TRUE(report.reconciled())
      << "degradation must change fidelity, never drop a window";
  bool saw_degraded = false;
  for (const StreamResult& s : report.streams) {
    if (!s.degraded) {
      EXPECT_EQ(s.degraded_decisions, 0u) << s.name;
      continue;
    }
    saw_degraded = true;
    EXPECT_NE(s.priority, core::StreamPriority::Critical);
    EXPECT_GT(s.decisions, 0u);
    // No fault plan in this scenario, so every gate that would have been
    // Model is FleetDegraded — and each one is a conservative warn.
    EXPECT_EQ(s.degraded_decisions, s.decisions) << s.name;
    EXPECT_EQ(s.model_decisions, 0u) << s.name;
    EXPECT_EQ(s.warnings, s.decisions) << s.name;
    for (const serving::DecisionRecord& rec : s.trace) {
      ASSERT_EQ(rec.source, runtime::DecisionSource::FleetDegraded);
      ASSERT_TRUE(rec.warn);
    }
  }
  EXPECT_TRUE(saw_degraded);
}

// --- misuse stays loud ---

TEST(FleetController, MisuseThrows) {
  FleetConfig cfg = fleet_config(2, 2, 49000);
  cfg.streams.clear();
  EXPECT_THROW(FleetController{cfg}, std::invalid_argument);

  FleetConfig no_shards = fleet_config(2, 2, 49000);
  no_shards.shards = 0;
  EXPECT_THROW(FleetController{no_shards}, std::invalid_argument);

  FleetConfig faulty = fleet_config(2, 2, 49000);
  faulty.fault.enabled = true;  // no durability_root → nothing to recover
  EXPECT_THROW(FleetController{faulty}, std::invalid_argument);

  FleetConfig ok = fleet_config(2, 1, 49000);
  ok.serving.frames = 120;
  FleetController fleet(ok);
  fleet.run();
  EXPECT_THROW(fleet.run(), std::logic_error);
}

}  // namespace
}  // namespace safecross::fleet
