#include "fleet/shard.h"

#include <iterator>
#include <thread>

#include "models/slowfast.h"

namespace safecross::fleet {

const char* shard_status_name(ShardStatus s) {
  switch (s) {
    case ShardStatus::Idle: return "idle";
    case ShardStatus::Running: return "running";
    case ShardStatus::Completed: return "completed";
    case ShardStatus::Crashed: return "crashed";
  }
  return "?";
}

ShardHost::ShardHost(std::size_t id, const ShardSpec& spec, ShardServingConfig serving)
    : id_(id), serving_(std::move(serving)) {
  engine_ = std::make_unique<core::SafeCross>(spec.engine);
  for (dataset::Weather w : spec.weathers) {
    models::SlowFastConfig mc = spec.engine.model;
    mc.init_seed = spec.model_init_seed_base + static_cast<std::uint64_t>(w);
    engine_->set_model(w, std::make_unique<models::SlowFast>(mc));
  }
}

serving::StreamServerConfig ShardHost::server_config(const ShardAssignment& a) const {
  serving::StreamServerConfig cfg;
  cfg.streams = a.streams;
  cfg.frames = serving_.frames;
  cfg.batcher = serving_.batcher;
  cfg.queue_capacity = serving_.queue_capacity;
  cfg.push_timeout_ms = serving_.push_timeout_ms;
  // Degrade-before-drop: the fleet's only pressure valves are admission
  // degradation and producer backpressure — a window silently shed at a
  // wall-clock-dependent instant could never reconcile, nor recover.
  cfg.shed_on_overload = false;
  cfg.record_traces = serving_.record_traces;
  cfg.decide_delay_ms = a.decide_delay_ms;
  if (!a.durability_dir.empty()) {
    cfg.durability.dir = a.durability_dir;
    cfg.durability.snapshot_every_decisions = serving_.snapshot_every_decisions;
    cfg.durability.keep_snapshots = serving_.keep_snapshots;
    cfg.durability.crash = a.crash;
  }
  return cfg;
}

ShardHost::~ShardHost() {
  stop_agent();
  wait_idle();
}

bool ShardHost::run_assignment(const ShardAssignment& a) {
  const std::uint64_t incarnation = ++incarnations_started_;
  std::unique_ptr<serving::StreamServer> server;
  bool ok = false;
  std::string what;
  try {
    server = std::make_unique<serving::StreamServer>(*engine_, server_config(a));
    for (std::size_t i = 0; i < a.handoffs.size(); ++i) {
      if (!a.handoffs[i].state.empty()) server->adopt_stream(i, a.handoffs[i]);
    }
  } catch (const std::exception& e) {
    // Construction/adoption failure (e.g. a stale-epoch hand-off the
    // fencing check rejected) is a dead-on-arrival incarnation.
    server.reset();
    crashed_at_ = std::chrono::steady_clock::now();
    crash_what_ = e.what();
    status_.store(static_cast<int>(ShardStatus::Crashed), std::memory_order_release);
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    live_ = server.get();
  }
  status_.store(static_cast<int>(ShardStatus::Running), std::memory_order_release);

  // Heartbeat sidecar: liveness + the latency watermark on a fixed
  // cadence, for as long as the serving loop is on-CPU. publish() never
  // blocks; the controller's silence-based detection does the rest. The
  // incarnation tag lets the controller drop stale/reordered beats a
  // faulty fabric delivers after a newer incarnation has started.
  std::atomic<bool> stop{false};
  const auto interval = std::chrono::duration<double, std::milli>(
      serving_.heartbeat_interval_ms > 0.0 ? serving_.heartbeat_interval_ms : 1.0);
  std::thread beater([&] {
    std::uint64_t seq = 0;
    while (!stop.load(std::memory_order_acquire)) {
      runtime::Heartbeat hb;
      hb.shard = id_;
      hb.incarnation = incarnation;
      hb.seq = seq++;
      hb.latency_watermark_ms = server->latency_watermark_ms();
      channel_.publish(hb);
      std::this_thread::sleep_for(interval);
    }
  });

  try {
    if (serving_.batched) {
      server->run();
    } else {
      server->run_sequential();
    }
    ok = true;
  } catch (const runtime::CrashInjected&) {
    // The scripted kill: on-disk state is exactly what a SIGKILL at the
    // armed crash point would leave.
  } catch (const std::exception& e) {
    what = e.what();
  }
  stop.store(true, std::memory_order_release);
  beater.join();

  // Unregister before the server can die: cross-thread pokes
  // (set_stream_degraded, the agent's drain polling) must never touch a
  // dying server. Sweep any uncollected drain hand-offs first — the
  // drained streams' state must survive the incarnation's end (the
  // agent keeps retransmitting them until the controller acks).
  {
    std::lock_guard<std::mutex> lock(live_mu_);
    if (server && server->drain_ready()) {
      std::vector<serving::StreamHandoff> hs = server->take_drained();
      orphan_handoffs_.insert(orphan_handoffs_.end(),
                              std::make_move_iterator(hs.begin()),
                              std::make_move_iterator(hs.end()));
    }
    live_ = nullptr;
  }

  if (ok) {
    std::vector<std::string> names;
    names.reserve(a.streams.size());
    for (const serving::StreamConfig& sc : a.streams) names.push_back(sc.name);
    incarnations_.push_back({a.wave, std::move(names), std::move(server)});
    status_.store(static_cast<int>(ShardStatus::Completed), std::memory_order_release);
  } else {
    server.reset();  // a dead process keeps no in-memory state
    crashed_at_ = std::chrono::steady_clock::now();
    crash_what_ = std::move(what);
    status_.store(static_cast<int>(ShardStatus::Crashed), std::memory_order_release);
  }
  return ok;
}

void ShardHost::dispatch_assignment(ShardAssignment a) {
  std::lock_guard<std::mutex> lock(inc_mu_);
  if (inc_thread_.joinable()) inc_thread_.join();
  // A spare host may carry a stale Completed/Crashed from an earlier
  // incarnation; reset before the thread spawns so the controller's
  // status peeks can never read the old outcome as this one's.
  status_.store(static_cast<int>(ShardStatus::Idle), std::memory_order_release);
  inc_thread_ = std::thread([this, a = std::move(a)] { run_assignment(a); });
}

void ShardHost::wait_idle() {
  std::lock_guard<std::mutex> lock(inc_mu_);
  if (inc_thread_.joinable()) inc_thread_.join();
}

bool ShardHost::set_stream_degraded(const std::string& name, bool on) {
  std::lock_guard<std::mutex> lock(live_mu_);
  if (!live_) return false;
  for (std::size_t i = 0; i < live_->stream_count(); ++i) {
    if (live_->stream(i).config().name == name) {
      live_->stream(i).set_live_degraded(on);
      return true;
    }
  }
  return false;
}

void ShardHost::start_agent() {
  if (agent_thread_.joinable()) return;
  agent_stop_.store(false, std::memory_order_release);
  agent_thread_ = std::thread([this] { agent_loop(); });
}

void ShardHost::stop_agent() {
  if (!agent_thread_.joinable()) return;
  agent_stop_.store(true, std::memory_order_release);
  agent_thread_.join();
}

void ShardHost::enqueue_local(FleetMsg msg) {
  std::lock_guard<std::mutex> lock(local_mu_);
  local_q_.push_back(std::move(msg));
}

void ShardHost::handle_msg(const FleetMsg& msg) {
  switch (msg.type) {
    case FleetMsgType::PlacementCmd: {
      // Ack every copy — the previous ack may have been eaten by the
      // fabric — but execute at most once per req_id.
      if (transport_) {
        FleetMsg ack;
        ack.type = FleetMsgType::PlacementAck;
        ack.req_id = msg.req_id;
        ack.shard = id_;
        transport_->uplink(id_).send(std::move(ack));
      }
      if (msg.req_id != 0 && !seen_reqs_.insert(msg.req_id).second) return;
      if (msg.assignment) dispatch_assignment(*msg.assignment);
      return;
    }
    case FleetMsgType::DrainRequest: {
      // DrainComplete (retransmitted until DrainAck) is the ack.
      if (msg.req_id != 0 && !seen_reqs_.insert(msg.req_id).second) return;
      PendingDrain d;
      d.req_id = msg.req_id;
      d.streams = msg.drain_streams;
      drains_.push_back(std::move(d));
      return;
    }
    case FleetMsgType::DrainAck:
      acked_drains_.insert(msg.req_id);
      return;
    default:
      return;  // controller-bound types never arrive here
  }
}

void ShardHost::agent_loop() {
  const runtime::RpcPolicy rpc;  // DrainComplete retransmit cadence
  while (!agent_stop_.load(std::memory_order_acquire)) {
    // 1. Pump buffered heartbeats onto the (faulty) uplink.
    if (transport_) {
      while (auto hb = channel_.take()) {
        FleetMsg m;
        m.type = FleetMsgType::Heartbeat;
        m.shard = id_;
        m.beat = *hb;
        transport_->uplink(id_).send(std::move(m));
      }
    }
    // 2. Service the downlink; the short block is the loop's pacing.
    if (transport_) {
      if (auto msg = transport_->downlink(id_).recv(std::chrono::milliseconds(1))) {
        handle_msg(*msg);
      }
      while (auto msg = transport_->downlink(id_).try_recv()) handle_msg(*msg);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // 3. The reliable local queue (console cable) — same handler.
    std::vector<FleetMsg> local;
    {
      std::lock_guard<std::mutex> lock(local_mu_);
      local.swap(local_q_);
    }
    for (const FleetMsg& m : local) handle_msg(m);
    // 4. Drive in-flight drains: execute against the live server, collect
    // the hand-offs at drain_ready, retransmit until the controller acks.
    for (PendingDrain& d : drains_) {
      if (acked_drains_.count(d.req_id)) continue;
      if (!d.executed) {
        std::lock_guard<std::mutex> lock(live_mu_);
        if (live_) {
          live_->request_drain(d.streams);
          d.executed = true;
        }
      }
      if (d.executed && !d.collected) {
        std::lock_guard<std::mutex> lock(live_mu_);
        if (live_ && live_->drain_ready()) {
          d.handoffs = live_->take_drained();
          d.collected = true;
        } else if (!live_ && !orphan_handoffs_.empty()) {
          // The incarnation ended between execution and collection; the
          // sweep in run_assignment preserved the hand-offs.
          d.handoffs = std::move(orphan_handoffs_);
          orphan_handoffs_.clear();
          d.collected = true;
        }
      }
      if (d.collected && transport_) {
        const auto now = std::chrono::steady_clock::now();
        const auto resend = std::chrono::duration<double, std::milli>(rpc.timeout_ms);
        if (d.last_send == std::chrono::steady_clock::time_point{} ||
            now - d.last_send >= resend) {
          FleetMsg m;
          m.type = FleetMsgType::DrainComplete;
          m.req_id = d.req_id;
          m.shard = id_;
          m.handoffs = d.handoffs;
          transport_->uplink(id_).send(std::move(m));
          d.last_send = now;
        }
      }
    }
  }
}

}  // namespace safecross::fleet
