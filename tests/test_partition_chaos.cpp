// Partition-tolerant control plane: the chaos acceptance suite for the
// transport-driven fleet (ISSUE 10).
//
// Every test drives a full fleet through a seeded NetFaultPlan — lossy,
// duplicating, delaying, reordering links; one-way and full partitions —
// and holds the tentpole oracle: every stream's MERGED decision sequence
// is bit-identical to the same-config run on a perfect network, and the
// post-run epoch audit proves no decision was journaled under a stale
// ownership epoch. On top:
//   * a full partition that heals within the suspicion window costs ZERO
//     failovers and zero false deaths (the phi-accrual detector rides it
//     out), while the hard-threshold detector false-declares the same
//     silence — reconciliation, not failover, is what saves it;
//   * the gray drill: a shard slowed 10×+ mid-wave hands its streams to
//     an idle peer through a cooperative live drain — zero windows shed,
//     no crash-path recovery, parity intact — even when the fabric
//     duplicates and reorders the hand-off transfers themselves.
//
// Scratch dirs live under chaos_scratch/ and are kept on failure so CI
// uploads the damaged fleet state for post-mortem.

#include "fleet/controller.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace safecross::fleet {
namespace {

namespace fs = std::filesystem;

using dataset::Weather;
using runtime::NetFaultPlan;
using runtime::NetPartition;
using serving::StreamConfig;

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

ShardSpec tiny_spec() {
  ShardSpec spec;
  spec.engine.model.slow_channels = 4;
  spec.engine.model.fast_channels = 2;
  spec.weathers = {Weather::Daytime, Weather::Rain};
  return spec;
}

FleetConfig fleet_config(std::size_t k, std::size_t shards, std::uint64_t base,
                         std::size_t frames = 1800) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.shard = tiny_spec();
  cfg.serving.frames = frames;
  cfg.serving.queue_capacity = 2;
  cfg.serving.snapshot_every_decisions = 8;
  cfg.serving.heartbeat_interval_ms = 1.0;
  cfg.watch_interval_ms = 2.0;
  // Tight rpc so retries and console-cable fallbacks resolve quickly
  // under heavy loss — the discipline, not the wall time, is under test.
  cfg.rpc.timeout_ms = 2.0;
  cfg.rpc.max_timeout_ms = 16.0;
  cfg.rpc.max_attempts = 5;
  for (std::size_t i = 0; i < k; ++i) {
    StreamConfig s;
    s.name = "cam" + std::to_string(i);
    s.weather = i % 2 == 0 ? Weather::Daytime : Weather::Rain;
    s.sim_seed = base + 10 * i;
    s.collector_seed = base + 10 * i + 1;
    s.fault_seed = base + 10 * i + 2;
    s.decision_stride = i % 3 == 0 ? 4 : 8;
    s.priority = static_cast<core::StreamPriority>(i % 3);
    cfg.streams.push_back(s);
  }
  return cfg;
}

/// The perfect-network, uninterrupted same-config run. Placement-shaping
/// knobs (shards, reserves, streams) stay; every fault and every
/// wall-clock-reactive knob is stripped.
FleetReport reference_report(FleetConfig cfg) {
  cfg.fault = {};
  cfg.net_fault = {};
  cfg.durability_root.clear();
  cfg.shard_decide_delay_ms.clear();
  cfg.drain_latency_watermark_ms = 0.0;
  cfg.dynamic_admission = {};
  cfg.detector = DetectorKind::HardThreshold;
  FleetController reference(cfg);
  reference.run();
  return reference.report();
}

void expect_fleet_parity(const FleetReport& got, const FleetReport& want) {
  ASSERT_EQ(got.streams.size(), want.streams.size());
  for (std::size_t i = 0; i < got.streams.size(); ++i) {
    const StreamResult& g = got.streams[i];
    const StreamResult& w = want.streams[i];
    SCOPED_TRACE("stream " + g.name);
    ASSERT_EQ(g.name, w.name);
    EXPECT_EQ(g.frames_run, w.frames_run);
    EXPECT_EQ(g.windows_produced, w.windows_produced);
    ASSERT_EQ(g.trace.size(), w.trace.size()) << "a decision was lost or duplicated";
    for (std::size_t s = 0; s < g.trace.size(); ++s) {
      SCOPED_TRACE("seq " + std::to_string(s));
      EXPECT_EQ(g.trace[s].frame, w.trace[s].frame);
      EXPECT_EQ(g.trace[s].danger_truth, w.trace[s].danger_truth);
      EXPECT_EQ(g.trace[s].predicted_class, w.trace[s].predicted_class);
      EXPECT_EQ(g.trace[s].prob_danger, w.trace[s].prob_danger)
          << "merged verdicts must be bit-identical";
      EXPECT_EQ(g.trace[s].warn, w.trace[s].warn);
      EXPECT_EQ(g.trace[s].source, w.trace[s].source);
    }
    EXPECT_EQ(g.decisions, w.decisions);
    EXPECT_EQ(g.warnings, w.warnings);
    EXPECT_EQ(g.correct, w.correct);
    EXPECT_EQ(g.model_decisions, w.model_decisions);
    EXPECT_EQ(g.fail_safe_decisions, w.fail_safe_decisions);
    EXPECT_EQ(g.opportunities, w.opportunities);
  }
}

void expect_epoch_audit_clean(const FleetController& fleet) {
  const EpochAuditReport audit = fleet.epoch_audit();
  EXPECT_TRUE(audit.ok()) << "epoch fencing violated: " << audit.violations.front();
  EXPECT_GT(audit.journals_checked, 0u) << "the audit walked nothing";
  EXPECT_GT(audit.decisions_checked, 0u);
}

void expect_kill_invariants(const FleetController& fleet, std::size_t expected_kills) {
  const FleetReport& report = fleet.report();
  EXPECT_EQ(fleet.kills_fired(), expected_kills) << "an armed kill never fired";
  ASSERT_EQ(report.failovers.size(), expected_kills);
  EXPECT_EQ(report.damage.recoveries, expected_kills);
  EXPECT_EQ(report.uncaught_exceptions, 0u);
  EXPECT_TRUE(report.reconciled());
  EXPECT_EQ(report.windows_shed_total, 0u);
}

/// The wave-0 launched slot of the shard whose reference run produced the
/// most decisions — a kill aimed anywhere else may sit on a journal that
/// never reaches the armed ordinal (Rain streams can decide almost never).
std::size_t busiest_slot(const FleetConfig& cfg, const FleetReport& want) {
  Placer placer(cfg.placement);
  const auto assignment =
      placer.place_all(cfg.streams, cfg.shards - cfg.reserve_shards);
  std::vector<std::size_t> decisions(cfg.shards, 0);
  std::vector<bool> hosts_streams(cfg.shards, false);
  for (std::size_t i = 0; i < cfg.streams.size(); ++i) {
    decisions[assignment[i]] += want.streams[i].decisions;
    hosts_streams[assignment[i]] = true;
  }
  std::size_t winner = 0;
  for (std::size_t s = 0; s < cfg.shards; ++s) {
    if (decisions[s] > decisions[winner]) winner = s;
  }
  std::size_t slot = 0;  // launched slots count shards with streams, in id order
  for (std::size_t s = 0; s < winner; ++s) {
    if (hosts_streams[s]) ++slot;
  }
  return slot;
}

/// One seeded fault plan over a killed fleet: failover hand-offs, retried
/// commands and stale-filtered beats all ride the faulty fabric, and the
/// merged sequences must still match the perfect-network reference.
void net_fault_kill_sweep(std::uint64_t base, NetFaultPlan plan, const char* tag) {
  FleetConfig cfg = fleet_config(4, 2, base);
  const FleetReport want = reference_report(cfg);
  ASSERT_GE(want.decisions_total, 24u) << "weak scenario for seed " << base;

  ScratchDir scratch(std::string("net_") + tag);
  cfg.durability_root = scratch.path;
  cfg.net_fault = plan;
  cfg.fault.enabled = true;
  FleetController fleet(cfg);
  fleet.fault().set_plan({ShardKill{.wave = 0,
                                    .victim = busiest_slot(cfg, want),
                                    .point = runtime::CrashPoint::MidJournalAppend,
                                    .nth = 5}});
  fleet.run();
  expect_kill_invariants(fleet, 1);
  expect_fleet_parity(fleet.report(), want);
  expect_epoch_audit_clean(fleet);
  const runtime::LinkStats& t = fleet.report().transport;
  EXPECT_GT(t.sent, 0u);
  EXPECT_GT(t.dropped + t.duplicated + t.delayed + t.reordered, 0u)
      << "the fault plan never bit: the sweep proved nothing";
}

// Plans 1–3 of the acceptance sweep: loss, duplication+delay, reordering.
TEST(PartitionChaos, LossyFabricFailoverStaysBitIdentical) {
  NetFaultPlan plan;
  plan.seed = 0xA11CE;
  plan.drop_prob = 0.15;
  net_fault_kill_sweep(81000, plan, "lossy");
}

TEST(PartitionChaos, DuplicatingDelayingFabricStaysBitIdentical) {
  NetFaultPlan plan;
  plan.seed = 0xB0B;
  plan.dup_prob = 0.3;
  plan.delay_prob = 0.3;
  plan.delay_min_ms = 1.0;
  plan.delay_max_ms = 5.0;
  net_fault_kill_sweep(84000, plan, "dup_delay");
}

TEST(PartitionChaos, ReorderingFabricStaysBitIdentical) {
  NetFaultPlan plan;
  plan.seed = 0xC4FE;
  plan.reorder_prob = 0.35;
  plan.drop_prob = 0.1;
  net_fault_kill_sweep(87000, plan, "reorder");
}

// Plan 4: a full partition (every link, both directions) that opens
// mid-run and heals. Under the suspicion detector the silence accrues
// against a generous bootstrap scale, the partition heals inside the
// window, beats resume — zero failovers, zero false deaths, parity.
TEST(PartitionChaos, FullPartitionHealsWithinSuspicionWindowZeroFailovers) {
  FleetConfig cfg = fleet_config(4, 2, 91000, /*frames=*/5400);
  const FleetReport want = reference_report(cfg);
  ASSERT_GE(want.decisions_total, 24u);

  ScratchDir scratch("net_partition_heal");
  cfg.durability_root = scratch.path;
  cfg.detector = DetectorKind::Suspicion;
  cfg.suspicion.bootstrap_gap_ms = 1000.0;  // the suspicion window: ~4s of grace
  cfg.suspicion.threshold = 4.0;
  cfg.suspicion.confirm_ticks = 2;
  cfg.net_fault.partitions.push_back(
      NetPartition{.from_ms = 60.0, .until_ms = 160.0});
  FleetController fleet(cfg);
  fleet.run();

  const FleetReport& report = fleet.report();
  EXPECT_GT(report.transport.partitioned, 0u)
      << "the partition window never overlapped the run";
  EXPECT_TRUE(report.failovers.empty())
      << "a healed partition must not cost a failover";
  EXPECT_EQ(report.false_deaths, 0u)
      << "suspicion must ride out silence the partition explains";
  EXPECT_EQ(report.damage.recoveries, 0u);
  EXPECT_EQ(report.windows_shed_total, 0u);
  EXPECT_TRUE(report.reconciled());
  expect_fleet_parity(report, want);
  expect_epoch_audit_clean(fleet);
}

// Plan 5: the identical partition under the hard-threshold detector.
// 100ms of silence is far past its missed-frame escalation, so it
// false-declares the partitioned (but alive) shards — and the post-wave
// reconciliation, not luck, is what keeps the false deaths from becoming
// split-brain failovers. Parity still holds.
TEST(PartitionChaos, HardThresholdFalseDeclaresTheSamePartitionReconciledNotFailedOver) {
  FleetConfig cfg = fleet_config(4, 2, 91000, /*frames=*/5400);
  const FleetReport want = reference_report(cfg);

  ScratchDir scratch("net_partition_hard");
  cfg.durability_root = scratch.path;
  cfg.detector = DetectorKind::HardThreshold;
  cfg.net_fault.partitions.push_back(
      NetPartition{.from_ms = 60.0, .until_ms = 160.0});
  FleetController fleet(cfg);
  fleet.run();

  const FleetReport& report = fleet.report();
  EXPECT_GT(report.transport.partitioned, 0u);
  EXPECT_GE(report.false_deaths, 1u)
      << "the hard threshold should have false-declared during the partition "
         "(this is the failure mode the suspicion detector exists to fix)";
  EXPECT_TRUE(report.failovers.empty())
      << "reconciliation must catch a false death before it fails over";
  EXPECT_EQ(report.damage.recoveries, 0u);
  EXPECT_TRUE(report.reconciled());
  expect_fleet_parity(report, want);
  expect_epoch_audit_clean(fleet);
}

/// The gray drill scaffolding: K streams over two placeable shards plus
/// one idle reserve; the busiest placed shard gets a per-batch inference
/// delay that dwarfs healthy latency (slow-but-alive, never dead).
///
/// The watermark only moves when a verdict lands, so the breach is seen
/// after the second slow batch at the earliest, and the drain executes at
/// the drain point after the batch in flight when it arrives. The wave
/// must outlast that: with 1800 frames the slow shard's whole backlog
/// fits in two batches once producers keep ahead of the 150 ms delay, and
/// the drain races the end of the run instead of landing mid-wave.
struct GrayDrill {
  FleetConfig cfg;
  std::size_t slow_shard = 0;

  explicit GrayDrill(std::uint64_t base)
      : cfg(fleet_config(4, 3, base, /*frames=*/5400)) {
    cfg.reserve_shards = 1;  // shard 2 idles as the drain target
    Placer placer(cfg.placement);
    const auto assignment = placer.place_all(cfg.streams, cfg.shards - 1);
    std::vector<std::size_t> count(cfg.shards, 0);
    for (std::size_t s : assignment) ++count[s];
    for (std::size_t s = 0; s < cfg.shards; ++s) {
      if (count[s] > count[slow_shard]) slow_shard = s;
    }
    EXPECT_GT(count[slow_shard], 0u) << "placement left every shard empty?";
    cfg.shard_decide_delay_ms.assign(cfg.shards, 0.0);
    cfg.shard_decide_delay_ms[slow_shard] = 150.0;  // >>10× a healthy batch
    cfg.drain_latency_watermark_ms = 200.0;
    cfg.drain_after_breaches = 3;
  }
};

void expect_gray_drill_outcome(const FleetController& fleet, const FleetReport& want,
                               std::size_t slow_shard) {
  const FleetReport& report = fleet.report();
  ASSERT_GE(report.drains.size(), 1u) << "the slow shard was never drained";
  const DrainEvent& ev = report.drains.front();
  EXPECT_EQ(ev.from_shard, slow_shard);
  EXPECT_NE(ev.to_shard, slow_shard);
  EXPECT_GT(ev.streams_moved, 0u);
  EXPECT_GE(ev.request_ms, 0.0);
  EXPECT_TRUE(report.failovers.empty()) << "a live drain is not a failover";
  EXPECT_EQ(report.damage.recoveries, 0u) << "no crash-path recovery ran";
  EXPECT_EQ(report.false_deaths, 0u) << "slow is not dead";
  EXPECT_EQ(report.uncaught_exceptions, 0u);
  EXPECT_EQ(report.windows_shed_total, 0u) << "zero windows shed across the drain";
  EXPECT_TRUE(report.reconciled());
  // Every stream that left the slow shard rode exactly one hand-off and
  // now serves under a freshly minted epoch — at-most-once adoption.
  std::size_t moved_seen = 0;
  for (const StreamResult& s : report.streams) {
    if (s.first_shard != slow_shard) continue;
    EXPECT_EQ(s.moves, 1u) << s.name << " must move exactly once";
    EXPECT_NE(s.final_shard, slow_shard);
    EXPECT_EQ(fleet.epochs().at(s.name), 2u) << "drain must mint a fresh epoch";
    ++moved_seen;
  }
  EXPECT_EQ(moved_seen, ev.streams_moved);
  expect_fleet_parity(report, want);
  expect_epoch_audit_clean(fleet);
}

// The gray drill on a perfect network: the shard turns slow mid-wave,
// the watermark breach streak triggers a cooperative drain, the reserve
// adopts the hand-offs live — and the merged sequences are bit-identical
// to the run where nothing was ever slow.
TEST(PartitionChaos, GrayShardDrainsLiveToReserveZeroShed) {
  GrayDrill drill(94000);
  const FleetReport want = reference_report(drill.cfg);
  ASSERT_GE(want.decisions_total, 24u);

  ScratchDir scratch("gray_drain");
  drill.cfg.durability_root = scratch.path;
  FleetController fleet(drill.cfg);
  fleet.run();
  expect_gray_drill_outcome(fleet, want, drill.slow_shard);
}

// The same drill over a fabric that duplicates, delays and reorders —
// the DrainRequest and the hand-off-carrying DrainComplete transfers
// themselves are ghosted and shuffled. req_id dedupe plus epoch fencing
// must make adoption exactly-once: same parity, same clean audit.
TEST(PartitionChaos, DuplicatedAndReorderedDrainTransfersAdoptAtMostOnce) {
  GrayDrill drill(97000);
  const FleetReport want = reference_report(drill.cfg);
  ASSERT_GE(want.decisions_total, 24u);

  ScratchDir scratch("gray_drain_dup_reorder");
  drill.cfg.durability_root = scratch.path;
  drill.cfg.net_fault.seed = 0xD8A1;
  drill.cfg.net_fault.dup_prob = 0.5;
  drill.cfg.net_fault.reorder_prob = 0.4;
  drill.cfg.net_fault.delay_prob = 0.3;
  drill.cfg.net_fault.delay_min_ms = 1.0;
  drill.cfg.net_fault.delay_max_ms = 4.0;
  FleetController fleet(drill.cfg);
  fleet.run();
  expect_gray_drill_outcome(fleet, want, drill.slow_shard);
  EXPECT_GT(fleet.report().transport.duplicated, 0u) << "the fabric never duplicated";
}

// Dynamic admission end-to-end (wall-clock reactive, so no parity claim):
// a slow shard's latency watermark breaches the degrade mark for the
// configured streak and the controller flips a live degrade on one of
// its non-Critical streams — windows still decided, nothing shed.
TEST(PartitionChaos, DynamicAdmissionDegradesLiveUnderSustainedBreach) {
  // The lossy sweep's scenario (decision-rich by construction), packed
  // onto one shard so every model batch eats the injected 60 ms delay.
  // fleet_config makes cam2 the lone BestEffort stream — Daytime, so it
  // keeps deciding after the degrade and the held degrade is observable.
  FleetConfig cfg = fleet_config(4, 1, 81000);
  cfg.shard_decide_delay_ms = {60.0};
  cfg.dynamic_admission.enabled = true;
  cfg.dynamic_admission.degrade_watermark_ms = 100.0;
  cfg.dynamic_admission.undegrade_watermark_ms = 50.0;
  cfg.dynamic_admission.breach_streak = 3;
  cfg.dynamic_admission.max_degraded = 1;

  ScratchDir scratch("dyn_admission_live");
  cfg.durability_root = scratch.path;
  FleetController fleet(cfg);
  fleet.run();

  const FleetReport& report = fleet.report();
  EXPECT_GE(report.live_degrades, 1u) << "the sustained breach never degraded anything";
  EXPECT_GT(report.degraded_decisions_total, 0u)
      << "a held degrade must answer decisions conservatively";
  EXPECT_EQ(report.windows_shed_total, 0u) << "degrade-before-drop, even live";
  EXPECT_TRUE(report.reconciled());
  EXPECT_TRUE(report.failovers.empty());
}

}  // namespace
}  // namespace safecross::fleet
