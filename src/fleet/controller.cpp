#include "fleet/controller.h"

#include <algorithm>
#include <stdexcept>
#include <thread>

#include "runtime/journal.h"

namespace safecross::fleet {

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

constexpr const char* kJournalFile = "journal.wal";  // serving durability layout

}  // namespace

const char* detector_kind_name(DetectorKind k) {
  switch (k) {
    case DetectorKind::HardThreshold: return "hard-threshold";
    case DetectorKind::Suspicion: return "suspicion";
  }
  return "?";
}

FleetController::FleetController(FleetConfig config)
    : cfg_(std::move(config)), placer_(cfg_.placement), fault_(cfg_.fault) {
  if (cfg_.streams.empty()) {
    throw std::invalid_argument("FleetController: at least one stream required");
  }
  if (cfg_.shards == 0) {
    throw std::invalid_argument("FleetController: at least one shard required");
  }
  if (cfg_.reserve_shards >= cfg_.shards) {
    throw std::invalid_argument("FleetController: reserve_shards must be < shards");
  }
  if (cfg_.fault.enabled && cfg_.durability_root.empty()) {
    // The crash points live inside the journal/snapshot write paths, and
    // failover has nothing to recover without a durable dir.
    throw std::invalid_argument(
        "FleetController: fault injection requires a durability_root");
  }
  transport_ = std::make_unique<FleetTransport>(cfg_.net_fault, cfg_.shards);
  hosts_.reserve(cfg_.shards);
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    hosts_.push_back(std::make_unique<ShardHost>(s, cfg_.shard, cfg_.serving));
    hosts_.back()->attach_transport(transport_.get());
  }
  last_view_.assign(cfg_.shards, runtime::HealthState::Nominal);
  beat_high_.assign(cfg_.shards, {0, 0});
  fresh_beat_.assign(cfg_.shards, std::nullopt);
}

std::filesystem::path FleetController::wave_dir(std::size_t shard,
                                                std::size_t wave_no) const {
  return cfg_.durability_root / ("shard-" + std::to_string(shard)) /
         ("wave-" + std::to_string(wave_no));
}

void FleetController::record_grants(const ShardAssignment& a) {
  if (a.durability_dir.empty()) return;
  std::vector<std::pair<std::string, std::uint64_t>> granted;
  granted.reserve(a.streams.size());
  for (const serving::StreamConfig& sc : a.streams) {
    granted.emplace_back(sc.name, sc.owner_epoch);
  }
  grants_[a.durability_dir] = std::move(granted);
}

FleetController::Launched FleetController::make_launched(std::size_t shard,
                                                         ShardAssignment a) const {
  Launched l;
  l.shard = shard;
  l.assignment = std::move(a);
  l.monitor = std::make_unique<runtime::HealthMonitor>(cfg_.shard_health);
  if (cfg_.detector == DetectorKind::Suspicion) {
    l.suspicion = std::make_unique<runtime::SuspicionDetector>(cfg_.suspicion);
  }
  if (cfg_.dynamic_admission.enabled) {
    l.dyn = std::make_unique<DynamicAdmission>(cfg_.dynamic_admission);
    l.dyn_order = degrade_order(l.assignment.streams);
  }
  return l;
}

void FleetController::run() {
  if (ran_) throw std::logic_error("FleetController: a controller runs once");
  ran_ = true;

  for (auto& host : hosts_) host->start_agent();

  // 1 + 2: seeded placement over the placeable shards (reserves stay
  // idle — live-drain targets), then static degrade-before-drop
  // admission. Both are pure functions of the config, so the same-config
  // reference run (and any failover re-placement) sees the identical
  // decisions. Every stream starts at ownership epoch 1; epochs only
  // ever move through the controller's mint (fail_over / live drain).
  const std::size_t placeable = cfg_.shards - cfg_.reserve_shards;
  assignment_ = placer_.place_all(cfg_.streams, placeable);
  for (serving::StreamConfig& sc : cfg_.streams) {
    sc.owner_epoch = 1;
    epochs_[sc.name] = 1;
  }
  admission_ = apply_admission(cfg_.streams, assignment_, cfg_.shards, cfg_.admission);
  report_.streams_degraded = admission_.streams_degraded;
  homes_.assign(cfg_.streams.size(), {});
  final_wave_.assign(cfg_.streams.size(), 0);
  for (std::size_t i = 0; i < cfg_.streams.size(); ++i) {
    homes_[i].push_back(assignment_[i]);
  }

  // Primary wave: every shard that was placed at least one stream.
  std::vector<Launched> wave;
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    ShardAssignment a;
    a.wave = 0;
    for (std::size_t i = 0; i < cfg_.streams.size(); ++i) {
      if (assignment_[i] == s) a.streams.push_back(cfg_.streams[i]);
    }
    if (a.streams.empty()) continue;
    if (s < cfg_.shard_decide_delay_ms.size()) {
      a.decide_delay_ms = cfg_.shard_decide_delay_ms[s];
    }
    if (!cfg_.durability_root.empty()) a.durability_dir = wave_dir(s, 0);
    record_grants(a);
    wave.push_back(make_launched(s, std::move(a)));
  }
  for (std::size_t slot = 0; slot < wave.size(); ++slot) {
    wave[slot].assignment.crash = fault_.injector_for(0, slot, wave.size());
    wave[slot].planned_kill = fault_.planned_for(0, slot, wave.size());
  }

  // 3–5: serve, watch, drain, fail over — until every stream completed.
  std::size_t wave_no = 0;
  while (!wave.empty()) {
    run_wave(wave, wave_no);
    std::vector<Launched> next = fail_over(wave, wave_no);
    wave = std::move(next);
    ++wave_no;
  }

  for (auto& host : hosts_) host->stop_agent();
  aggregate();
}

void FleetController::send_placement(Launched& l) {
  FleetMsg m;
  m.type = FleetMsgType::PlacementCmd;
  m.req_id = l.cmd_req_id;
  m.shard = l.shard;
  m.assignment = l.cmd_payload;
  transport_->downlink(l.shard).send(std::move(m));
  ++l.cmd_attempts;
  l.cmd_sent = Clock::now();
}

void FleetController::launch(Launched& l) {
  // Clear any stale Completed/Crashed before the command can land: until
  // the agent dispatches, the old incarnation's outcome would otherwise
  // be readable as this one's.
  hosts_[l.shard]->reset_status();
  l.cmd_req_id = next_req_id_++;
  l.cmd_payload = std::make_shared<const ShardAssignment>(l.assignment);
  send_placement(l);
}

void FleetController::route_uplink(FleetMsg msg, std::vector<Launched>& wave,
                                   std::size_t wave_no) {
  switch (msg.type) {
    case FleetMsgType::Heartbeat: {
      // Stale-beat filter: a faulty fabric delays and reorders, and a
      // beat from a finished incarnation must never vouch for the next
      // one. (incarnation, seq) is monotonic per shard by construction.
      auto& high = beat_high_[msg.shard];
      const std::pair<std::uint64_t, std::uint64_t> key{msg.beat.incarnation,
                                                        msg.beat.seq};
      if (key <= high) return;
      high = key;
      fresh_beat_[msg.shard] = msg.beat;
      return;
    }
    case FleetMsgType::PlacementAck: {
      for (Launched& l : wave) {
        if (l.cmd_req_id == msg.req_id) l.cmd_acked = true;
      }
      return;
    }
    case FleetMsgType::DrainComplete:
      handle_drain_complete(msg, wave, wave_no);
      return;
    default:
      return;  // shard-bound types never arrive on an uplink
  }
}

void FleetController::handle_drain_complete(const FleetMsg& msg,
                                            std::vector<Launched>& wave,
                                            std::size_t wave_no) {
  // Always re-ack: the previous ack may have been eaten, and the shard
  // agent retransmits until one lands.
  {
    FleetMsg ack;
    ack.type = FleetMsgType::DrainAck;
    ack.req_id = msg.req_id;
    ack.shard = msg.shard;
    transport_->downlink(msg.shard).send(std::move(ack));
  }
  // At-most-once adoption: a duplicated or retransmitted hand-off
  // transfer is dropped here; the minted-epoch check in adopt_stream is
  // the belt-and-braces beneath this.
  if (!drains_adopted_.insert(msg.req_id).second) return;
  if (msg.handoffs.empty()) return;

  Launched* src = nullptr;
  for (Launched& l : wave) {
    if (l.draining && l.drain_req_id == msg.req_id) src = &l;
  }
  if (src == nullptr) return;  // unknown req_id: not a drain this run asked for
  const std::size_t target = src->drain_target;
  const Clock::time_point triggered = src->drain_triggered;

  ShardAssignment a;
  a.wave = drain_wave_next_++;
  if (target < cfg_.shard_decide_delay_ms.size()) {
    a.decide_delay_ms = cfg_.shard_decide_delay_ms[target];
  }
  for (serving::StreamHandoff h : msg.handoffs) {
    const std::string& name = h.config.name;
    // Mint a fresh ownership epoch: the source's epoch is now stale, so
    // even if the source were to journal one more decision for this
    // stream (it cannot — the stream is detached), the audit would see it.
    const std::uint64_t epoch = ++epochs_[name];
    h.config.owner_epoch = epoch;
    for (std::size_t i = 0; i < cfg_.streams.size(); ++i) {
      if (cfg_.streams[i].name == name) {
        homes_[i].push_back(target);
        final_wave_[i] = a.wave;
      }
    }
    a.streams.push_back(h.config);
    a.handoffs.push_back(std::move(h));
  }
  if (!cfg_.durability_root.empty()) a.durability_dir = wave_dir(target, a.wave);
  record_grants(a);

  DrainEvent ev;
  ev.wave = wave_no;
  ev.from_shard = msg.shard;
  ev.to_shard = target;
  ev.streams_moved = a.streams.size();
  ev.request_ms = ms_between(triggered, Clock::now());
  report_.drains.push_back(ev);

  wave.push_back(make_launched(target, std::move(a)));  // src pointer is dead past this line
  launch(wave.back());
}

void FleetController::run_wave(std::vector<Launched>& wave, std::size_t wave_no) {
  transport_->fabric().set_wave(wave_no);
  for (std::size_t i = 0; i < wave.size(); ++i) launch(wave[i]);

  // The watch loop. All control traffic rides the (possibly faulty)
  // transport: beats arrive on uplinks and are stale-filtered, unacked
  // commands are retried per RpcPolicy and fall back to the console
  // cable, silence feeds the chosen failure detector, hot beats accrue
  // toward live drains and dynamic admission. The wave vector GROWS when
  // a drain's hand-offs are adopted — every pass iterates by index.
  const auto interval = std::chrono::duration<double, std::milli>(
      cfg_.watch_interval_ms > 0.0 ? cfg_.watch_interval_ms : 1.0);
  for (;;) {
    for (std::size_t s = 0; s < cfg_.shards; ++s) {
      while (auto m = transport_->uplink(s).try_recv()) {
        route_uplink(std::move(*m), wave, wave_no);
      }
    }

    bool settled = true;
    for (std::size_t idx = 0; idx < wave.size(); ++idx) {
      Launched& l = wave[idx];
      if (l.finished || l.dead) continue;
      ShardHost& host = *hosts_[l.shard];
      const Clock::time_point now = Clock::now();
      const ShardStatus st = host.status();

      if (st == ShardStatus::Completed) {
        l.finished = true;
        l.monitor->frame_ok();
        if (l.draining && !drains_adopted_.count(l.drain_req_id)) {
          // The source completed before the drain executed (request
          // raced the end of the run): nothing detached, nothing to
          // adopt — the streams finished in place. A drain that DID
          // execute leaves detached streams, and its DrainComplete is
          // retransmitted until adopted, so keep waiting for it then.
          const auto& incs = host.incarnations();
          const bool executed =
              !incs.empty() && incs.back().server->streams_detached() > 0;
          if (!executed) l.draining = false;
        }
        continue;
      }

      // Command rpc: resend per backoff; after max_attempts the console
      // cable (reliable local queue) guarantees delivery, so a run
      // terminates under a total permanent partition.
      if (!l.cmd_acked &&
          ms_between(l.cmd_sent, now) >= cfg_.rpc.timeout_for_attempt(l.cmd_attempts)) {
        if (l.cmd_attempts >= cfg_.rpc.max_attempts) {
          FleetMsg m;
          m.type = FleetMsgType::PlacementCmd;
          m.req_id = l.cmd_req_id;
          m.shard = l.shard;
          m.assignment = l.cmd_payload;
          host.enqueue_local(std::move(m));
          l.cmd_acked = true;
          ++report_.transport_fallbacks;
        } else {
          send_placement(l);
        }
      }

      // Drain request rpc (DrainComplete is its ack).
      if (l.draining && !l.drain_fellback && !drains_adopted_.count(l.drain_req_id) &&
          ms_between(l.drain_sent, now) >=
              cfg_.rpc.timeout_for_attempt(l.drain_attempts)) {
        FleetMsg m;
        m.type = FleetMsgType::DrainRequest;
        m.req_id = l.drain_req_id;
        m.shard = l.shard;
        for (std::size_t i = 0; i < l.assignment.streams.size(); ++i) {
          m.drain_streams.push_back(i);
        }
        if (l.drain_attempts >= cfg_.rpc.max_attempts) {
          host.enqueue_local(std::move(m));
          l.drain_fellback = true;
          ++report_.transport_fallbacks;
        } else {
          transport_->downlink(l.shard).send(std::move(m));
          ++l.drain_attempts;
          l.drain_sent = now;
        }
      }

      std::optional<runtime::Heartbeat> hb = fresh_beat_[l.shard];
      fresh_beat_[l.shard].reset();
      if (hb) {
        l.saw_beat = true;
        if (l.suspicion) l.suspicion->on_beat(now);
        l.monitor->frame_ok();

        // Gray-failure drain trigger: a shard whose latency watermark
        // stays over the drain mark is slow-but-alive — hand its streams
        // to an idle peer instead of waiting for a death that may never
        // come.
        if (cfg_.drain_latency_watermark_ms > 0.0 && !l.draining) {
          if (hb->latency_watermark_ms > cfg_.drain_latency_watermark_ms) {
            ++l.breach_streak;
          } else {
            l.breach_streak = 0;
          }
          if (l.breach_streak >= cfg_.drain_after_breaches) {
            // Pick an idle target: no live entry in this wave, not dead.
            std::vector<char> busy(cfg_.shards, 0);
            for (const Launched& o : wave) {
              if (!o.finished || o.dead) busy[o.shard] = 1;
              if (o.dead) busy[o.shard] = 1;
            }
            std::size_t target = cfg_.shards;
            for (std::size_t s = 0; s < cfg_.shards; ++s) {
              if (!busy[s]) { target = s; break; }
            }
            if (target < cfg_.shards) {
              l.draining = true;
              l.drain_req_id = next_req_id_++;
              l.drain_target = target;
              l.drain_attempts = 0;
              l.drain_sent = Clock::time_point{};  // send on the next pass
              l.drain_triggered = now;
            } else {
              l.breach_streak = 0;  // nowhere to go; back off and re-accrue
            }
          }
        }

        // Dynamic admission: live per-stream degrade with hysteresis.
        if (l.dyn) {
          switch (l.dyn->observe(hb->latency_watermark_ms)) {
            case DynamicAdmission::Action::Degrade: {
              for (const std::string& name : l.dyn_order) {
                if (std::find(l.dyn_victims.begin(), l.dyn_victims.end(), name) !=
                    l.dyn_victims.end()) {
                  continue;
                }
                if (host.set_stream_degraded(name, true)) {
                  l.dyn_victims.push_back(name);
                  ++report_.live_degrades;
                }
                break;
              }
              break;
            }
            case DynamicAdmission::Action::Undegrade: {
              if (!l.dyn_victims.empty()) {
                if (host.set_stream_degraded(l.dyn_victims.back(), false)) {
                  ++report_.live_undegrades;
                }
                l.dyn_victims.pop_back();
              }
              break;
            }
            case DynamicAdmission::Action::None:
              break;
          }
        }
      } else if (st == ShardStatus::Idle) {
        l.monitor->frame_ok();  // command still in flight; startup is not death
      } else {
        l.monitor->frame_missing();
        if (l.suspicion && l.suspicion->poll_silent(now)) {
          l.dead = true;
          l.declared_at = now;
        }
      }
      // Death: the hard threshold declares on the monitor's escalation;
      // suspicion declared above. A beatless incarnation (dead on
      // arrival) falls back to the monitor under either detector —
      // suspicion's phi never accrues on a link that never beat.
      if ((l.suspicion == nullptr || !l.saw_beat) &&
          l.monitor->state() == runtime::HealthState::FailSafe) {
        l.dead = true;
        if (l.declared_at == Clock::time_point{}) l.declared_at = Clock::now();
      }
      settled = false;
    }

    // A drain whose hand-offs are still in flight keeps the wave open:
    // the source may already be finished, but the moved streams have no
    // incarnation yet.
    for (Launched& l : wave) {
      if (l.draining && !drains_adopted_.count(l.drain_req_id)) settled = false;
    }
    if (settled) break;
    std::this_thread::sleep_for(interval);
  }

  // Wave epilogue: join every incarnation this wave dispatched.
  {
    std::vector<char> joined(cfg_.shards, 0);
    for (const Launched& l : wave) {
      if (!joined[l.shard]) {
        hosts_[l.shard]->wait_idle();
        joined[l.shard] = 1;
      }
    }
  }

  // Reconcile the silence-based verdicts against ground truth now that
  // every incarnation has returned: a shard declared dead that actually
  // completed (a partition or starvation false positive) must NOT be
  // failed over — its streams finished; double-serving them would
  // corrupt the merged sequences. The converse cannot happen: a crashed
  // shard never completes, so the watch loop can only have exited by
  // declaring it.
  for (Launched& l : wave) {
    const ShardStatus st = hosts_[l.shard]->status();
    const bool crashed = st == ShardStatus::Crashed;
    if (l.dead && !crashed) {
      l.dead = false;
      l.finished = true;
      ++report_.false_deaths;
    } else if (crashed && !l.finished) {
      l.dead = true;
      if (l.declared_at == Clock::time_point{}) l.declared_at = Clock::now();
    }
    last_view_[l.shard] = l.monitor->state();
  }
}

std::vector<FleetController::Launched> FleetController::fail_over(
    std::vector<Launched>& wave, std::size_t wave_no) {
  std::vector<Launched*> dead;
  std::vector<std::size_t> crashed_shards;
  for (Launched& l : wave) {
    if (l.dead) {
      dead.push_back(&l);
      crashed_shards.push_back(l.shard);
    }
  }
  if (dead.empty()) return {};

  // Survivors adopt the orphans. When every shard died (S = 1, or a
  // correlated wipeout), the crashed shards restart in place: the host
  // outlives its incarnations, so "restart" is just being a valid
  // re-placement target again.
  std::vector<std::size_t> live;
  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    if (std::find(crashed_shards.begin(), crashed_shards.end(), s) ==
        crashed_shards.end()) {
      live.push_back(s);
    }
  }
  if (live.empty()) live = crashed_shards;

  std::unordered_map<std::string, std::size_t> name_index;
  for (std::size_t i = 0; i < cfg_.streams.size(); ++i) {
    name_index.emplace(cfg_.streams[i].name, i);
  }

  std::vector<double> load(cfg_.shards, 0.0);
  std::map<std::size_t, ShardAssignment> regroup;  // ordered: deterministic slots
  for (Launched* l : dead) {
    ShardHost& host = *hosts_[l->shard];
    if (!host.crash_what().empty()) ++report_.uncaught_exceptions;

    FailoverEvent ev;
    ev.wave = wave_no;
    ev.shard = l->shard;
    if (l->planned_kill) ev.point = l->planned_kill->point;
    ev.detect_ms = ms_between(host.crashed_at(), l->declared_at);

    // Recovery server: the dead incarnation's exact config (fingerprint
    // match) over its durable dir, crash injector disarmed — the kill
    // already happened. recover() absorbs torn tails and corrupt
    // snapshot generations; drain_streams() extracts the hand-offs
    // (cooperatively-drained streams were already detached in the
    // snapshot and are skipped — their new owner holds a newer epoch).
    const auto t0 = Clock::now();
    ShardAssignment dead_a = l->assignment;
    dead_a.crash = nullptr;
    serving::StreamServer recovery(host.engine(), host.server_config(dead_a));
    ev.recovery = recovery.recover();
    std::vector<serving::StreamHandoff> handoffs = recovery.drain_streams();
    ev.recover_ms = ms_between(t0, Clock::now());
    ev.streams_moved = handoffs.size();
    report_.damage.add(ev.recovery);

    for (serving::StreamHandoff& h : handoffs) {
      const std::size_t target = placer_.place(h.config.name, live, load);
      load[target] += stream_weight(h.config);
      // Split-brain fencing: the dead incarnation's epoch is dead with
      // it. The replacement serves under a freshly minted epoch, so any
      // zombie decision under the old one is auditable as stale.
      h.config.owner_epoch = ++epochs_[h.config.name];
      const auto it = name_index.find(h.config.name);
      if (it != name_index.end()) {
        homes_[it->second].push_back(target);
        final_wave_[it->second] = wave_no + 1;
      }
      ShardAssignment& a = regroup[target];
      a.wave = wave_no + 1;
      a.streams.push_back(h.config);
      a.handoffs.push_back(std::move(h));
    }
    report_.failovers.push_back(std::move(ev));
  }

  std::vector<Launched> next;
  next.reserve(regroup.size());
  for (auto& [shard, a] : regroup) {
    if (shard < cfg_.shard_decide_delay_ms.size()) {
      a.decide_delay_ms = cfg_.shard_decide_delay_ms[shard];
    }
    if (!cfg_.durability_root.empty()) a.durability_dir = wave_dir(shard, wave_no + 1);
    record_grants(a);
    next.push_back(make_launched(shard, std::move(a)));
  }
  for (std::size_t slot = 0; slot < next.size(); ++slot) {
    next[slot].assignment.crash = fault_.injector_for(wave_no + 1, slot, next.size());
    next[slot].planned_kill = fault_.planned_for(wave_no + 1, slot, next.size());
  }
  return next;
}

void FleetController::aggregate() {
  for (std::size_t i = 0; i < cfg_.streams.size(); ++i) {
    const std::size_t shard = homes_[i].back();
    const std::size_t wave = final_wave_[i];
    const ShardHost::Incarnation* inc = nullptr;
    for (const ShardHost::Incarnation& c : hosts_[shard]->incarnations()) {
      if (c.wave == wave) inc = &c;
    }
    if (inc == nullptr) {
      throw std::logic_error("FleetController: stream '" + cfg_.streams[i].name +
                             "' has no completed incarnation");
    }
    std::size_t local = inc->stream_names.size();
    for (std::size_t j = 0; j < inc->stream_names.size(); ++j) {
      if (inc->stream_names[j] == cfg_.streams[i].name) local = j;
    }
    if (local == inc->stream_names.size()) {
      throw std::logic_error("FleetController: stream '" + cfg_.streams[i].name +
                             "' missing from its final incarnation");
    }
    const serving::StreamContext& ctx = inc->server->stream(local);
    const core::StreamScorecard& sc = ctx.scorecard();

    StreamResult r;
    r.name = cfg_.streams[i].name;
    r.priority = cfg_.streams[i].priority;
    r.degraded = cfg_.streams[i].fleet_degraded;
    r.first_shard = homes_[i].front();
    r.final_shard = shard;
    r.moves = homes_[i].size() - 1;
    r.frames_run = ctx.frames_run();
    r.windows_produced = ctx.windows_produced();
    r.opportunities = sc.decision_opportunities();
    r.decisions = sc.decisions();
    r.model_decisions = sc.model_decisions();
    r.fail_safe_decisions = sc.fail_safe_decisions();
    r.degraded_decisions = sc.fail_safe_by_source(runtime::DecisionSource::FleetDegraded);
    r.warnings = sc.warnings();
    r.correct = sc.correct();
    r.accuracy = sc.accuracy();
    r.trace = ctx.trace();

    report_.windows_produced_total += r.windows_produced;
    report_.decisions_total += r.decisions;
    report_.model_decisions_total += r.model_decisions;
    report_.fail_safe_total += r.fail_safe_decisions;
    report_.degraded_decisions_total += r.degraded_decisions;
    report_.streams.push_back(std::move(r));
  }

  for (std::size_t s = 0; s < cfg_.shards; ++s) {
    ShardSummary sum;
    sum.id = s;
    sum.final_status = static_cast<int>(hosts_[s]->status());
    sum.incarnations = hosts_[s]->incarnations().size();
    for (const auto& homes : homes_) {
      if (!homes.empty() && homes.back() == s) ++sum.streams_final;
    }
    sum.beats_published = hosts_[s]->channel().beats_published();
    sum.beats_evicted = hosts_[s]->channel().beats_evicted();
    sum.controller_view = last_view_[s];
    for (const ShardHost::Incarnation& inc : hosts_[s]->incarnations()) {
      sum.windows_shed += inc.server->windows_shed_total();
      for (std::size_t j = 0; j < inc.server->stream_count(); ++j) {
        sum.queue_high_water = std::max(sum.queue_high_water,
                                        inc.server->queue_high_water(j));
      }
      sum.latency_watermark_ms =
          std::max(sum.latency_watermark_ms, inc.server->latency_watermark_ms());
    }
    report_.windows_shed_total += sum.windows_shed;
    report_.shards.push_back(sum);
  }

  report_.transport = transport_->total_stats();
}

EpochAuditReport FleetController::epoch_audit() const {
  EpochAuditReport rep;
  // (stream name, seq) → epoch it was decided under, across every
  // journal: one decision may only ever be recorded under one epoch.
  std::map<std::pair<std::string, std::uint64_t>, std::uint64_t> decided_under;
  for (const auto& [dir, granted] : grants_) {
    const std::filesystem::path path = dir / kJournalFile;
    const runtime::Journal::ReplayReport replay = runtime::Journal::replay(path);
    if (replay.missing) continue;  // incarnation never journaled (ok: e.g. crash at boot)
    ++rep.journals_checked;
    for (const runtime::JournalRecord& rec : replay.records) {
      if (rec.type != runtime::JournalRecordType::Decision) continue;
      ++rep.decisions_checked;
      const runtime::DecisionEntry& d = rec.decision;
      if (d.stream >= granted.size()) {
        rep.violations.push_back(path.string() + ": decision for unknown local stream " +
                                 std::to_string(d.stream));
        continue;
      }
      const auto& [name, epoch] = granted[d.stream];
      if (d.owner_epoch != epoch) {
        rep.violations.push_back(path.string() + ": stream '" + name + "' seq " +
                                 std::to_string(d.seq) + " decided under epoch " +
                                 std::to_string(d.owner_epoch) + ", granted " +
                                 std::to_string(epoch));
      }
      const auto key = std::make_pair(name, d.seq);
      const auto [it, fresh] = decided_under.emplace(key, d.owner_epoch);
      if (!fresh && it->second != d.owner_epoch) {
        rep.violations.push_back("stream '" + name + "' seq " + std::to_string(d.seq) +
                                 " decided under two epochs (" +
                                 std::to_string(it->second) + " and " +
                                 std::to_string(d.owner_epoch) + ")");
      }
    }
  }
  return rep;
}

}  // namespace safecross::fleet
