#include "serving/stream_server.h"

#include <stdexcept>
#include <thread>
#include <utility>

#include "common/checksum.h"
#include "common/state_io.h"
#include "common/timer.h"
#include "switching/grouping.h"
#include "vision/danger_zone.h"

namespace safecross::serving {

using runtime::DecisionSource;

namespace {

constexpr const char* kJournalFile = "journal.wal";

// How long the batcher blocks on one queue when nothing arrived and no
// servable window is staged.
constexpr double kPopTimeoutMs = 1.0;

// Seed of the producer supervisor's restart-backoff jitter.
constexpr std::uint64_t kSupervisorSeed = 0x5EB7E55u;

std::chrono::milliseconds to_ms(double ms) {
  if (ms < 0.0) ms = 0.0;
  return std::chrono::milliseconds(static_cast<long long>(ms));
}

std::string scene_name(Weather weather) { return vision::weather_name(weather); }

}  // namespace

const char* switch_mode_name(SwitchMode m) {
  switch (m) {
    case SwitchMode::Legacy: return "legacy";
    case SwitchMode::StopAndStart: return "stop-and-start";
    case SwitchMode::Pipelined: return "pipelined";
  }
  return "?";
}

StreamServer::StreamServer(core::SafeCross& engine, StreamServerConfig config)
    : engine_(engine), config_(std::move(config)) {
  if (config_.streams.empty()) {
    throw std::invalid_argument("StreamServer: at least one stream required");
  }
  if (config_.durability.enabled() && config_.shed_on_overload) {
    // A shed window is a decision that silently never happens at a
    // wall-clock-dependent instant; no deterministic recovery can
    // reproduce it, so durable runs must use pure backpressure.
    throw std::invalid_argument(
        "StreamServer: durability requires shed_on_overload = false");
  }
  reset_snapshot_state();
  const std::size_t k = streams_.size();
  crash_pos_.assign(k, 0);
  shed_.assign(k, 0);
  last_window_weather_.reserve(k);
  for (const StreamConfig& sc : config_.streams) last_window_weather_.push_back(sc.weather);
  high_water_.assign(k, 0);
  pending_.resize(k);
  pending_recalib_.resize(k);
  parked_ = std::make_unique<std::atomic<char>[]>(k);
  finished_ = std::make_unique<std::atomic<char>[]>(k);
  for (std::size_t i = 0; i < k; ++i) {
    parked_[i].store(0, std::memory_order_relaxed);
    finished_[i].store(0, std::memory_order_relaxed);
  }
}

std::size_t StreamServer::windows_shed_total() const {
  std::size_t total = 0;
  for (std::size_t s : shed_) total += s;
  return total;
}

std::size_t StreamServer::total_decisions() const {
  std::size_t total = 0;
  for (const auto& ctx : streams_) total += ctx->scorecard().decisions();
  return total;
}

std::optional<Weather> StreamServer::serve_weather(Weather weather) const {
  // The window's own weather model when the engine has one, else the basic
  // daytime model (the paper's always-available VC module) rather than
  // leaving the intersection unguarded; none at all gates fail-safe.
  if (engine_.has_model(weather)) return weather;
  if (engine_.has_model(Weather::Daytime)) return Weather::Daytime;
  return std::nullopt;
}

// --- durability helpers ---

std::uint64_t StreamServer::config_fingerprint() const {
  common::StateWriter w;
  w.u64(config_.frames);
  w.boolean(config_.shed_on_overload);
  w.u8(static_cast<std::uint8_t>(config_.switch_mode));
  w.u64(config_.model_cache.capacity_models);
  w.f64(config_.model_cache.bytes_scale);
  w.u64(config_.streams.size());
  for (const StreamConfig& sc : config_.streams) {
    w.str(sc.name);
    w.u8(static_cast<std::uint8_t>(sc.weather));
    w.u64(sc.sim_seed);
    w.u64(sc.collector_seed);
    w.u64(sc.fault_seed);
    w.i32(sc.decision_stride);
    w.i32(sc.warmup_frames);
    w.u8(static_cast<std::uint8_t>(sc.priority));
    w.boolean(sc.fleet_degraded);
    w.u64(sc.owner_epoch);
    w.i32(sc.vp.frames_per_segment);
    w.u8(static_cast<std::uint8_t>(sc.vp.approach));
    w.i32(sc.vp.grid_w);
    w.i32(sc.vp.grid_h);
    w.u8(static_cast<std::uint8_t>(sc.vp.mode));
    w.f64(sc.faults.drop_prob);
    w.f64(sc.faults.freeze_prob);
    w.f64(sc.faults.noise_prob);
    w.f64(sc.faults.blackout_prob);
    w.i32(sc.faults.blackout_frames);
    w.f64(sc.faults.switch_failure_prob);
    w.f64(sc.faults.geometry.drift_px_per_frame);
    w.f64(sc.faults.geometry.drift_rot_per_frame);
    w.u64(sc.faults.geometry.drift_start_frame);
    w.u64(sc.faults.geometry.drift_stop_frame);
    w.f64(sc.faults.geometry.shake_amp_px);
    w.f64(sc.faults.geometry.shake_period_frames);
    w.f64(sc.faults.geometry.bump_prob);
    w.f64(sc.faults.geometry.bump_max_px);
    w.f64(sc.faults.geometry.bump_max_rot);
    w.boolean(sc.recalib.enabled);
    w.u64(sc.recalib.check_every_frames);
    w.f64(sc.recalib.drift_threshold_px);
    w.u64(sc.recalib.solve_latency_frames);
    w.u64(sc.recalib.estimator.seed);
    w.u64(sc.model_schedule.size());
    for (const ModelSwitchEvent& ev : sc.model_schedule) {
      w.u64(ev.at_frame);
      w.u8(static_cast<std::uint8_t>(ev.to));
      w.f64(ev.delay_ms);
    }
    w.u64(sc.crash_frames.size());
    for (std::size_t f : sc.crash_frames) w.u64(f);
  }
  const std::string& bytes = w.bytes();
  return static_cast<std::uint64_t>(common::crc32(bytes)) |
         (static_cast<std::uint64_t>(bytes.size()) << 32);
}

template <class Self, class A>
void StreamServer::persist_snapshot(Self& self, A& a) {
  std::uint64_t fp = self.config_fingerprint();
  a.u64(fp);
  if (fp != self.config_fingerprint()) {
    throw std::runtime_error(
        "StreamServer::recover: snapshot was taken under a different stream "
        "configuration (fingerprint mismatch)");
  }
  a.u64(self.windows_batched_);
  std::uint64_t k = self.streams_.size();
  a.u64(k);
  if (k != self.streams_.size()) {
    throw std::runtime_error("StreamServer::recover: snapshot stream count mismatch");
  }
  for (auto& d : self.down_) a.boolean(d);
  // Detached flags are durable: a crash after a cooperative drain must
  // not resurrect streams that already moved to a peer.
  for (auto& d : self.detached_) a.boolean(d);
  for (auto& ctx : self.streams_) a.nested(*ctx);
}

std::string StreamServer::snapshot_payload() const {
  common::StateWriter w;
  persist_snapshot(*this, w);
  return w.take();
}

void StreamServer::reset_snapshot_state() {
  streams_.clear();
  streams_.reserve(config_.streams.size());
  for (const StreamConfig& sc : config_.streams) {
    streams_.push_back(std::make_unique<StreamContext>(sc));
    streams_.back()->set_record_trace(config_.record_traces);
  }
  windows_batched_ = 0;
  down_.assign(streams_.size(), 0);
  detached_.assign(streams_.size(), 0);
}

std::string StreamServer::load_snapshot_payload(const std::string& payload) {
  try {
    common::StateReader r(payload);
    persist_snapshot(*this, r);
    return {};
  } catch (const common::StateError& e) {
    // The failed load overwrote a prefix of the state; start the next
    // attempt from the configured one.
    reset_snapshot_state();
    return e.what();
  }
}

void StreamServer::prepare_durability() {
  if (!durable()) return;
  const std::filesystem::path& dir = config_.durability.dir;
  std::filesystem::create_directories(dir);
  if (!recovered_) {
    std::error_code ec;
    const std::filesystem::path journal_path = dir / kJournalFile;
    const bool journal_present = std::filesystem::exists(journal_path, ec) &&
                                 std::filesystem::file_size(journal_path, ec) > 0;
    if (journal_present || SnapshotStore::load_newest_valid(dir).found) {
      throw std::runtime_error(
          "StreamServer: durability dir holds state from a previous run; "
          "call recover() first (or point at a fresh dir)");
    }
  }
  if (!snapshots_) {
    snapshots_ = std::make_unique<SnapshotStore>(dir, config_.durability.keep_snapshots);
  }
  journal_.open(dir / kJournalFile, config_.durability.journal, config_.durability.crash);
  // Close every dangling switch the killed run left: its Begin is durable
  // but no load ever landed, so the decision stream stayed fully on the
  // old model — exactly what an Abort records. Appending these first
  // keeps the per-switch_id exactly-once (one Begin, one terminal)
  // invariant auditable from the final journal alone.
  for (const DanglingSwitch& d : dangling_switches_) {
    journal_switch_phase(runtime::JournalRecordType::ModelSwitchAbort, d.switch_id,
                         d.weather, 0.0, /*reason=*/1);
  }
  dangling_switches_.clear();
}

void StreamServer::finish_durability() {
  if (!durable()) return;
  journal_.sync();
  journal_.close();
}

bool StreamServer::apply_replayed(const ReadyWindow& w) {
  if (!durable()) return false;
  auto& pend = pending_[w.stream];
  auto it = pend.find(w.seq);
  if (it == pend.end()) return false;
  const runtime::DecisionEntry& e = it->second;
  if (e.frame != w.frame || e.danger_truth != w.danger_truth) {
    // The journal is CRC-clean, so a mismatch here means the re-produced
    // stream diverged from the killed run — a determinism bug, not disk
    // corruption. Fail loudly; silently trusting either side would
    // corrupt the decision stream.
    throw std::runtime_error("StreamServer: journal replay diverged from re-produced window");
  }
  streams_[w.stream]->apply(w, e.predicted_class, e.prob_danger, e.warn,
                            static_cast<DecisionSource>(e.source));
  note_applied(e.latency_ms);  // before the erase: `e` lives in the map node
  pend.erase(it);
  ++decisions_since_snapshot_;
  return true;
}

runtime::JournalRecord StreamServer::decision_record(const ReadyWindow& w,
                                                    const core::SafeCross::Decision& d,
                                                    double latency_ms) const {
  runtime::JournalRecord rec;
  rec.type = runtime::JournalRecordType::Decision;
  rec.decision.stream = static_cast<std::uint32_t>(w.stream);
  rec.decision.seq = w.seq;
  rec.decision.frame = w.frame;
  rec.decision.danger_truth = w.danger_truth;
  rec.decision.predicted_class = d.predicted_class;
  rec.decision.prob_danger = d.prob_danger;
  rec.decision.warn = d.warn;
  rec.decision.source = static_cast<std::uint8_t>(d.source);
  rec.decision.latency_ms = latency_ms;
  // Fencing: the epoch this incarnation owns the stream under. The fleet
  // audits journals post-run — a decision under a stale epoch is a
  // split-brain bug.
  rec.decision.owner_epoch = config_.streams[w.stream].owner_epoch;
  return rec;
}

void StreamServer::journal_recalibrations(std::size_t i) {
  StreamContext& ctx = *streams_[i];
  if (ctx.recalibration() == nullptr) return;
  std::vector<runtime::RecalibrationEntry> done = ctx.take_recalibrations();
  for (runtime::RecalibrationEntry& e : done) {
    e.stream = static_cast<std::uint32_t>(i);
    auto& pend = pending_recalib_[i];
    auto it = pend.find(e.frame);
    if (it != pend.end()) {
      // The killed run already journaled this recalibration: the re-run
      // must have re-derived the identical one, or the calibration
      // lineage — and with it every later warp — has diverged.
      const runtime::RecalibrationEntry& j = it->second;
      bool same = j.attempts == e.attempts && j.residual_rms == e.residual_rms &&
                  j.drift_px == e.drift_px;
      for (std::size_t m = 0; same && m < e.image_to_grid.size(); ++m) {
        same = j.image_to_grid[m] == e.image_to_grid[m];
      }
      if (!same) {
        throw std::runtime_error(
            "StreamServer: journal replay diverged from re-derived recalibration");
      }
      pend.erase(it);
      continue;  // already durable: exactly-once
    }
    if (journal_.is_open()) {
      runtime::JournalRecord rec;
      rec.type = runtime::JournalRecordType::Recalibration;
      rec.recalibration = e;
      journal_.append(rec);
    }
  }
}

void StreamServer::write_snapshot_now() {
  snapshots_->write(snapshot_payload(), config_.durability.crash);
  decisions_since_snapshot_ = 0;
}

RecoveryReport StreamServer::recover() {
  if (!durable()) {
    throw std::logic_error("StreamServer::recover: durability is not configured");
  }
  if (ran_ || recovered_) {
    throw std::logic_error("StreamServer::recover: must be called once, before run");
  }
  const std::filesystem::path& dir = config_.durability.dir;
  RecoveryReport report;

  // 1. The journal's valid prefix — the ground truth of what was emitted.
  const std::filesystem::path journal_path = dir / kJournalFile;
  runtime::Journal::ReplayReport replay = runtime::Journal::replay(journal_path);
  report.journal_missing = replay.missing;
  report.journal_bad_header = replay.bad_header;
  report.journal_torn_tail = replay.torn_tail;
  report.journal_tail_error = replay.tail_error;
  report.journal_records = replay.records.size();
  report.journal_bytes_dropped = replay.file_bytes - replay.valid_bytes;

  // 2. Newest snapshot that is intact and decodes; corrupt or undecodable
  // generations fall back with reasons. Decoding throws only on a config
  // mismatch.
  SnapshotStore::Loaded snap = SnapshotStore::load_newest_valid(
      dir, [this](const std::string& payload) { return load_snapshot_payload(payload); });
  report.snapshots_rejected = snap.rejected;
  if (snap.found) {
    report.recovered_from_snapshot = true;
    report.snapshot_generation = snap.generation;
  }

  // 3. Decisions journaled after the snapshot was cut become the replay
  // set: when the deterministic re-run re-produces those windows, the
  // journaled verdict is applied instead of re-deciding (exactly-once).
  // Switch-phase records are audited alongside: a Begin with no terminal
  // is a mid-switch kill; prepare_durability() closes each with an Abort.
  std::map<std::uint64_t, std::uint8_t> open_switches;  // id -> weather
  for (const runtime::JournalRecord& rec : replay.records) {
    if (rec.type == runtime::JournalRecordType::Decision) {
      const std::size_t stream = rec.decision.stream;
      if (stream >= streams_.size()) continue;  // defensive: fingerprint pins K
      if (rec.decision.seq < streams_[stream]->windows_produced()) continue;  // in snapshot
      pending_[stream].insert_or_assign(rec.decision.seq, rec.decision);
    } else if (rec.type == runtime::JournalRecordType::Recalibration) {
      // Recalibrations already reflected in the snapshot (applied at a
      // frame the restored stream has lived through) need no replay; the
      // rest must be re-derived bit-identically by the resumed run.
      const std::size_t stream = rec.recalibration.stream;
      if (stream >= streams_.size()) continue;
      if (rec.recalibration.frame <= streams_[stream]->frames_run()) continue;
      pending_recalib_[stream].insert_or_assign(rec.recalibration.frame, rec.recalibration);
    } else if (rec.type == runtime::JournalRecordType::ModelSwitchBegin) {
      ++report.journal_switch_begins;
      open_switches[rec.switch_phase.switch_id] = rec.switch_phase.weather;
      if (rec.switch_phase.switch_id >= next_switch_id_) {
        next_switch_id_ = rec.switch_phase.switch_id + 1;
      }
    } else if (rec.type == runtime::JournalRecordType::ModelSwitchCommit) {
      ++report.journal_switch_commits;
      open_switches.erase(rec.switch_phase.switch_id);
    } else if (rec.type == runtime::JournalRecordType::ModelSwitchAbort) {
      ++report.journal_switch_aborts;
      open_switches.erase(rec.switch_phase.switch_id);
    }
  }
  for (const auto& [id, weather] : open_switches) {
    dangling_switches_.push_back({id, weather});
  }
  report.switches_aborted_on_recovery = dangling_switches_.size();
  for (const auto& pend : pending_) report.journal_pending += pend.size();
  for (const auto& pend : pending_recalib_) {
    report.journal_pending_recalibrations += pend.size();
  }

  // 4. Drop the torn tail so the re-appended records follow the valid
  // prefix directly. A journal with a damaged header never replayed any
  // record — reset it entirely and let open() write a fresh header.
  if (!replay.missing && (replay.torn_tail || replay.bad_header)) {
    common::truncate_file(journal_path, replay.bad_header ? 0 : replay.valid_bytes);
  }

  // 5. Producer crash schedules compare against the *next* frame ordinal;
  // skip entries the restored streams already lived through, or a stale
  // entry would block every later one from ever firing.
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    const auto& crashes = config_.streams[i].crash_frames;
    while (crash_pos_[i] < crashes.size() &&
           crashes[crash_pos_[i]] <= streams_[i]->frames_run()) {
      ++crash_pos_[i];
    }
  }

  snapshots_ = std::make_unique<SnapshotStore>(dir, config_.durability.keep_snapshots);
  recovered_ = true;
  recovery_ = report;
  return report;
}

StreamHandoff StreamServer::package_handoff(std::size_t i) {
  StreamHandoff h;
  h.config = config_.streams[i];
  common::StateWriter w;
  streams_[i]->save_state(w);
  h.state = w.take();
  h.down = down_[i] != 0;
  h.pending = std::move(pending_[i]);
  h.pending_recalib = std::move(pending_recalib_[i]);
  h.frames_run = streams_[i]->frames_run();
  h.windows_produced = streams_[i]->windows_produced();
  pending_[i].clear();
  pending_recalib_[i].clear();
  return h;
}

std::vector<StreamHandoff> StreamServer::drain_streams() {
  if (!recovered_) {
    throw std::logic_error("StreamServer::drain_streams: call recover() first");
  }
  if (ran_) {
    throw std::logic_error("StreamServer::drain_streams: server already ran (or drained)");
  }
  ran_ = true;  // consumed: the hand-off is this server's run
  std::vector<StreamHandoff> out;
  out.reserve(streams_.size());
  for (std::size_t i = 0; i < streams_.size(); ++i) {
    // A stream detached before the crash already moved to a peer through
    // the live drain; its state here is a stale duplicate — re-handing it
    // off would double-own the stream (the fleet's epoch filter is the
    // backstop, this is the front door).
    if (detached_[i]) continue;
    out.push_back(package_handoff(i));
  }
  return out;
}

void StreamServer::adopt_stream(std::size_t i, const StreamHandoff& h) {
  if (ran_) {
    throw std::logic_error("StreamServer::adopt_stream: must be called before run");
  }
  if (i >= streams_.size() || config_.streams[i].name != h.config.name) {
    throw std::logic_error(
        "StreamServer::adopt_stream: slot does not match the hand-off stream");
  }
  // Split-brain fence: this slot was configured by the controller with
  // the epoch it minted for the current placement. A hand-off stamped
  // with any other epoch is from a superseded placement (a duplicated or
  // reordered transfer) — adopting it would let two incarnations decide
  // the same stream.
  if (h.config.owner_epoch != config_.streams[i].owner_epoch) {
    throw std::logic_error(
        "StreamServer::adopt_stream: stale ownership epoch for '" + h.config.name +
        "' (hand-off " + std::to_string(h.config.owner_epoch) + ", owned " +
        std::to_string(config_.streams[i].owner_epoch) + ")");
  }
  common::StateReader r(h.state);
  streams_[i]->load_state(r);
  last_window_weather_[i] = streams_[i]->model_weather();
  down_[i] = h.down ? 1 : 0;
  pending_[i] = h.pending;
  pending_recalib_[i] = h.pending_recalib;
  // Producer crash schedules compare against the *next* frame ordinal;
  // skip entries the restored stream already lived through (same rule as
  // recover()).
  const auto& crashes = config_.streams[i].crash_frames;
  while (crash_pos_[i] < crashes.size() &&
         crashes[crash_pos_[i]] <= streams_[i]->frames_run()) {
    ++crash_pos_[i];
  }
}

// --- deciding paths ---

void StreamServer::decide_fail_safe(const ReadyWindow& w) {
  const auto d = core::SafeCross::fail_safe_decision(w.gate);
  const double latency =
      std::chrono::duration<double, std::milli>(Clock::now() - w.captured).count();
  if (journal_.is_open()) journal_.append(decision_record(w, d, latency));
  streams_[w.stream]->apply(w, d.predicted_class, d.prob_danger, d.warn, d.source);
  ++decisions_since_snapshot_;
  note_applied(latency);
}

void StreamServer::decide_batch(Batch& batch, Clock::time_point dispatched) {
  const double max_wait_ms =
      std::chrono::duration<double, std::milli>(dispatched - batch.items.front().captured)
          .count();
  if (config_.decide_delay_ms > 0.0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(config_.decide_delay_ms));
  }
  if (cache_ != nullptr) {
    ensure_resident_blocking(batch.weather);
    const std::string scene = scene_name(batch.weather);
    if (cache_->resident(scene)) {
      cache_->touch(scene);
      last_served_scene_ = scene;
    }
  }
  const std::optional<Weather> served = serve_weather(batch.weather);
  const std::size_t n = batch.items.size();
  std::vector<const std::vector<vision::Image>*> windows;
  windows.reserve(n);
  for (const ReadyWindow& item : batch.items) windows.push_back(&item.window);
  std::vector<core::SafeCross::Decision> decisions =
      served ? engine_.classify_batch_as(*served, windows)
             : std::vector<core::SafeCross::Decision>(
                   n, core::SafeCross::fail_safe_decision(
                          DecisionSource::FailSafeSwitchInFlight));

  const auto now = Clock::now();
  std::vector<double> latencies(n);
  batch_records_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const ReadyWindow& item = batch.items[i];
    core::SafeCross::Decision& d = decisions[i];
    latencies[i] = std::chrono::duration<double, std::milli>(now - item.captured).count();
    // Deadline budget spans capture → verdict in batched mode, queue and
    // batch waits included; off by default so wall clocks never perturb
    // parity.
    if (d.source == DecisionSource::Model &&
        streams_[item.stream]->health().deadline_blown(latencies[i])) {
      d.warn = true;
      d.predicted_class = 0;
      d.source = DecisionSource::FailSafeDeadline;
    }
    if (journal_.is_open()) batch_records_.push_back(decision_record(item, d, latencies[i]));
  }
  // Group commit, write-ahead per verdict: the whole batch is durable
  // (one write, one fsync) before any of it is applied. A kill inside the
  // commit leaves a prefix of the batch on disk, which recovery re-applies.
  if (journal_.is_open()) journal_.append(batch_records_);
  for (std::size_t i = 0; i < n; ++i) {
    const ReadyWindow& item = batch.items[i];
    const core::SafeCross::Decision& d = decisions[i];
    streams_[item.stream]->apply(item, d.predicted_class, d.prob_danger, d.warn, d.source);
    ++decisions_since_snapshot_;
    note_applied(latencies[i]);
  }
  windows_batched_ += n;
  batch_log_.push_back({batch.weather, batch.epoch, n, max_wait_ms, n < effective_max_batch()});
}

void StreamServer::accept(MicroBatcher& batcher, ReadyWindow w) {
  // Live demand signal for the stale-load drop: the freshest window's
  // weather is what this stream wants *now* (deciding thread only).
  last_window_weather_[w.stream] = w.model_weather;
  if (apply_replayed(w)) return;
  if (w.gate != DecisionSource::Model) {
    decide_fail_safe(w);
    return;
  }
  if (cache_ != nullptr && config_.switch_mode == SwitchMode::Pipelined) {
    request_load(w.model_weather);
  }
  batcher.stage(std::move(w));
}

// --- serving-path switching ---

void StreamServer::setup_model_cache() {
  if (config_.switch_mode == SwitchMode::Legacy) return;
  switching::ModelCacheConfig mc = config_.model_cache;
  if (config_.switch_mode == SwitchMode::StopAndStart) mc.capacity_models = 1;
  cache_ = std::make_unique<switching::ModelCache>(mc);
  // Every weather model shares the deployment-scale SlowFast R50 profile
  // (paper Table VI), so one profile and one PipeSwitch grouping serve
  // every weather the engine holds. A weather with no model stays out of
  // the cache and degrades through the daytime fallback.
  const switching::ModelProfile profile = switching::slowfast_r50_profile();
  const std::vector<int> groups = switching::optimal_grouping(profile, switching::GpuModelConfig{});
  for (const Weather weather : vision::kAllWeathers) {
    if (engine_.has_model(weather)) cache_->register_model(scene_name(weather), profile, groups);
  }
  // Boot prewarm (config.prewarm, typically ModelStore::warm_manifest):
  // fill the cold cache before the first window so it never pays the
  // servability holdback. Fill-only — never evicts, stops at the first
  // weather that does not fit. Runs before prepare_durability(), so
  // nothing is journaled and a recovered run re-warms deterministically;
  // these are not switches (switches_committed() stays 0).
  const auto no_evict = [](const std::string&) { return false; };
  for (const Weather weather : config_.prewarm) {
    const std::string scene = scene_name(weather);
    if (!cache_->registered(scene) || cache_->resident(scene)) continue;
    try {
      cache_->load_blocking(scene, config_.switch_mode == SwitchMode::Pipelined,
                            no_evict, {}, {});
      ++models_prewarmed_;
    } catch (const std::exception&) {
      break;  // cache full: the manifest is ordered most-valuable-first
    }
  }
}

void StreamServer::request_load(Weather weather) {
  const std::string scene = scene_name(weather);
  if (!cache_->registered(scene) || cache_->resident(scene)) return;
  if (load_ != nullptr && load_->weather == weather) return;
  for (const Weather w : want_) {
    if (w == weather) return;
  }
  want_.push_back(weather);
}

void StreamServer::journal_switch_phase(runtime::JournalRecordType type,
                                        std::uint64_t switch_id, std::uint8_t weather,
                                        double wall_ms, std::uint8_t reason) {
  if (!journal_.is_open()) return;
  runtime::JournalRecord rec;
  rec.type = type;
  rec.switch_phase.switch_id = switch_id;
  rec.switch_phase.weather = weather;
  rec.switch_phase.mode = static_cast<std::uint8_t>(config_.switch_mode);
  rec.switch_phase.reason = reason;
  rec.switch_phase.wall_ms = wall_ms;
  rec.switch_phase.at_decision = journal_.records_appended();
  journal_.append(rec);
}

void StreamServer::start_next_load(MicroBatcher& batcher) {
  runtime::CrashInjector* crash = config_.durability.crash;
  // Protect the scene that served the last batch (it may be mid-use as the
  // "old" model of this very switch) and any weather with a staged
  // backlog — evicting those would starve their groups behind a reload.
  const auto may_evict = [this, &batcher](const std::string& scene) {
    if (scene == last_served_scene_) return false;
    for (const Weather w : vision::kAllWeathers) {
      if (scene_name(w) == scene) return batcher.staged_for(w) == 0;
    }
    return true;
  };
  const auto on_evict = [crash](const std::string&) {
    if (crash != nullptr) crash->maybe_crash(runtime::CrashPoint::MidCacheEviction);
  };

  // A queued load is stale when nothing wants its weather anymore: no
  // staged window and no stream whose freshest window asked for it. An
  // A→B→A switch storm queues B while A's windows are still landing;
  // by the time B's load could start every stream is back on A, and
  // starting it would be pure wasted transfer (and an eviction risk for
  // a model that IS wanted).
  const auto demanded = [this, &batcher](Weather weather) {
    if (batcher.staged_for(weather) > 0) return true;
    for (std::size_t i = 0; i < streams_.size(); ++i) {
      if (!down_[i] && !detached_[i] && last_window_weather_[i] == weather) return true;
    }
    return false;
  };

  const std::size_t rounds = want_.size();
  for (std::size_t t = 0; t < rounds; ++t) {
    const Weather weather = want_.front();
    want_.pop_front();
    const std::string scene = scene_name(weather);
    if (cache_->resident(scene)) continue;  // landed via a blocking path
    if (!demanded(weather)) {
      // Dropped without a Begin: a switch that never starts is not a
      // switch, just a want that expired.
      ++loads_dropped_stale_;
      continue;
    }
    if (!cache_->can_prepare(scene, may_evict)) {
      // Un-evictable right now (its victims still have backlogs): rotate
      // to the back WITHOUT journaling — a Begin is only written for a
      // switch that actually starts loading.
      want_.push_back(weather);
      continue;
    }
    const std::uint64_t id = next_switch_id_++;
    journal_switch_phase(runtime::JournalRecordType::ModelSwitchBegin, id,
                         static_cast<std::uint8_t>(weather), 0.0);
    if (crash != nullptr) crash->maybe_crash(runtime::CrashPoint::AfterSwitchBegin);
    try {
      cache_->prepare(scene, may_evict, on_evict);
    } catch (const std::exception&) {
      // can_prepare raced a staged-backlog change, or fragmentation beat
      // the byte arithmetic: close the Begin and retry later.
      journal_switch_phase(runtime::JournalRecordType::ModelSwitchAbort, id,
                           static_cast<std::uint8_t>(weather), 0.0, /*reason=*/2);
      ++switches_aborted_;
      want_.push_back(weather);
      continue;
    }
    load_ = std::make_unique<LoadOp>();
    load_->weather = weather;
    load_->scene = scene;
    load_->switch_id = id;
    LoadOp* op = load_.get();
    op->worker = std::thread([this, op, crash] {
      try {
        op->result = cache_->transfer(
            op->scene, /*pipelined=*/true, [crash](std::size_t) {
              if (crash != nullptr) crash->maybe_crash(runtime::CrashPoint::MidModelLoad);
            });
      } catch (...) {
        op->error = std::current_exception();
      }
      op->done.store(true, std::memory_order_release);
    });
    return;
  }
}

void StreamServer::finish_load() {
  std::unique_ptr<LoadOp> op = std::move(load_);
  if (op->worker.joinable()) op->worker.join();
  if (op->error) {
    try {
      std::rethrow_exception(op->error);
    } catch (const std::exception&) {
      // Real load failure: roll back the reservation, close the Begin,
      // requeue — the old model keeps serving, no verdict is affected.
      cache_->abort_prepare();
      journal_switch_phase(runtime::JournalRecordType::ModelSwitchAbort, op->switch_id,
                           static_cast<std::uint8_t>(op->weather), 0.0, /*reason=*/2);
      ++switches_aborted_;
      want_.push_back(op->weather);
      return;
    }
    // CrashInjected (deliberately not a std::exception) falls through the
    // handler above and propagates: the simulated kill struck mid-load,
    // and run()'s unwind path presents recovery with a dangling Begin.
  }
  cache_->commit(op->scene, op->result.wall_ms);
  journal_switch_phase(runtime::JournalRecordType::ModelSwitchCommit, op->switch_id,
                       static_cast<std::uint8_t>(op->weather), op->result.wall_ms);
  ++switches_committed_;
}

void StreamServer::poll_load(MicroBatcher& batcher) {
  if (cache_ == nullptr || config_.switch_mode != SwitchMode::Pipelined) return;
  if (load_ != nullptr && load_->done.load(std::memory_order_acquire)) finish_load();
  if (load_ == nullptr && !want_.empty()) start_next_load(batcher);
}

void StreamServer::ensure_resident_blocking(Weather weather) {
  if (cache_ == nullptr) return;
  if (load_ != nullptr) {
    // Finalize the in-flight load first — it may be this very weather's,
    // and two concurrent transfers would share one executor.
    while (!load_->done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    finish_load();
  }
  const std::string scene = scene_name(weather);
  if (!cache_->registered(scene) || cache_->resident(scene)) return;

  runtime::CrashInjector* crash = config_.durability.crash;
  const std::uint64_t id = next_switch_id_++;
  journal_switch_phase(runtime::JournalRecordType::ModelSwitchBegin, id,
                       static_cast<std::uint8_t>(weather), 0.0);
  if (crash != nullptr) crash->maybe_crash(runtime::CrashPoint::AfterSwitchBegin);
  const bool pipelined = config_.switch_mode == SwitchMode::Pipelined;
  switching::ExecutorResult result;
  try {
    // Permissive eviction (anything but the incoming scene): this path
    // must make room or the batch in hand could never be served warm.
    result = cache_->load_blocking(
        scene, pipelined, /*may_evict=*/{},
        [crash](const std::string&) {
          if (crash != nullptr) crash->maybe_crash(runtime::CrashPoint::MidCacheEviction);
        },
        [crash](std::size_t) {
          if (crash != nullptr) crash->maybe_crash(runtime::CrashPoint::MidModelLoad);
        });
  } catch (const std::exception&) {
    // Load failure never blocks a verdict: journal the Abort and decide
    // the batch anyway — residency is a latency model, not correctness.
    journal_switch_phase(runtime::JournalRecordType::ModelSwitchAbort, id,
                         static_cast<std::uint8_t>(weather), 0.0, /*reason=*/2);
    ++switches_aborted_;
    return;
  }
  journal_switch_phase(runtime::JournalRecordType::ModelSwitchCommit, id,
                       static_cast<std::uint8_t>(weather), result.wall_ms);
  ++switches_committed_;
}

void StreamServer::produce(std::size_t i, runtime::BoundedQueue<ReadyWindow>& queue,
                           runtime::Supervisor& supervisor) {
  if (down_[i] || detached_[i]) return;  // gave up / already handed off
  StreamContext& ctx = *streams_[i];
  const auto push_timeout = to_ms(config_.push_timeout_ms);
  const std::vector<std::size_t>& crashes = ctx.config().crash_frames;
  while (ctx.frames_run() < config_.frames) {
    if (supervisor.stop_requested()) return;
    if (snapshot_gate_.load(std::memory_order_acquire)) {
      // Snapshot barrier: park between ticks so every produced window is
      // already pushed when the consumer cuts the snapshot.
      std::unique_lock<std::mutex> lk(park_mu_);
      parked_[i].store(1, std::memory_order_release);
      park_cv_.wait(lk, [&] {
        return !snapshot_gate_.load(std::memory_order_acquire) ||
               supervisor.stop_requested();
      });
      parked_[i].store(0, std::memory_order_release);
      continue;
    }
    // The consumer may have detached this stream (cooperative drain)
    // while the producer was parked: its state belongs to a peer now —
    // one more tick here would fork the stream.
    if (detached_[i]) return;
    // Injected crash *before* the frame is processed: the restarted
    // incarnation resumes at this exact frame, so within-budget crashes
    // are invisible to the verdict stream.
    const std::size_t next_frame = ctx.frames_run() + 1;
    if (crash_pos_[i] < crashes.size() && crashes[crash_pos_[i]] == next_frame) {
      ++crash_pos_[i];
      crashes_injected_.fetch_add(1, std::memory_order_relaxed);
      throw std::runtime_error("injected producer crash: " + ctx.config().name);
    }
    std::optional<ReadyWindow> w = ctx.tick();
    if (!w) continue;
    w->stream = i;
    if (queue.push_ref(*w, push_timeout)) continue;
    if (config_.shed_on_overload) {
      queue.push_drop_oldest(std::move(*w));  // the queue counts the shed
    } else {
      while (!supervisor.stop_requested() && !queue.push_ref(*w, push_timeout)) {
      }
    }
  }
}

template <typename Fn>
void StreamServer::quiesce(
    std::vector<std::unique_ptr<runtime::BoundedQueue<ReadyWindow>>>& queues,
    MicroBatcher& batcher, Fn&& at_quiescence) {
  snapshot_gate_.store(true, std::memory_order_release);
  const std::size_t k = queues.size();
  for (;;) {
    // Keep draining while producers converge on the barrier — a producer
    // mid-push must not deadlock against a full queue.
    for (std::size_t i = 0; i < k; ++i) {
      while (std::optional<ReadyWindow> w = queues[i]->pop(std::chrono::milliseconds(0))) {
        accept(batcher, std::move(*w));
      }
    }
    bool all_quiet = true;
    for (std::size_t i = 0; i < k; ++i) {
      if (!parked_[i].load(std::memory_order_acquire) &&
          !finished_[i].load(std::memory_order_acquire)) {
        all_quiet = false;
        break;
      }
    }
    if (all_quiet) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  // Producers are parked (or done): one final drain catches windows
  // pushed just before parking, then the batcher flushes early — batch
  // composition never changes a verdict, so this is parity-safe.
  for (std::size_t i = 0; i < k; ++i) {
    while (std::optional<ReadyWindow> w = queues[i]->pop(std::chrono::milliseconds(0))) {
      accept(batcher, std::move(*w));
    }
  }
  while (std::optional<Batch> batch = batcher.flush()) decide_batch(*batch, Clock::now());
  at_quiescence();
  {
    std::lock_guard<std::mutex> lk(park_mu_);
    snapshot_gate_.store(false, std::memory_order_release);
  }
  park_cv_.notify_all();
}

void StreamServer::barrier_snapshot(
    std::vector<std::unique_ptr<runtime::BoundedQueue<ReadyWindow>>>& queues,
    MicroBatcher& batcher) {
  quiesce(queues, batcher, [this, &queues] {
    // Every recalibration the snapshot will bake in must already be
    // durable in the journal (the snapshot deliberately carries no
    // outbox state).
    for (std::size_t i = 0; i < queues.size(); ++i) journal_recalibrations(i);
    write_snapshot_now();
  });
}

void StreamServer::request_drain(std::vector<std::size_t> streams) {
  {
    std::lock_guard<std::mutex> lk(drain_mu_);
    for (std::size_t i : streams) {
      bool dup = false;
      for (std::size_t j : drain_set_) dup = dup || j == i;
      if (!dup && i < streams_.size()) drain_set_.push_back(i);
    }
  }
  drain_requested_.store(true, std::memory_order_release);
}

std::vector<StreamHandoff> StreamServer::take_drained() {
  std::lock_guard<std::mutex> lk(drain_mu_);
  drain_ready_.store(false, std::memory_order_release);
  return std::move(drained_out_);
}

std::size_t StreamServer::streams_detached() const {
  std::size_t n = 0;
  for (char d : detached_) n += d != 0;
  return n;
}

void StreamServer::cooperative_drain(
    std::vector<std::unique_ptr<runtime::BoundedQueue<ReadyWindow>>>& queues,
    MicroBatcher& batcher) {
  std::vector<std::size_t> wanted;
  {
    std::lock_guard<std::mutex> lk(drain_mu_);
    wanted = std::move(drain_set_);
    drain_set_.clear();
  }
  drain_requested_.store(false, std::memory_order_release);

  std::vector<StreamHandoff> out;
  quiesce(queues, batcher, [this, &queues, &wanted, &out] {
    // Quiescent: every produced window is decided, producers are parked
    // between ticks. Each wanted stream's state is a clean cut a peer can
    // adopt and continue bit-identically.
    for (std::size_t i = 0; i < queues.size(); ++i) journal_recalibrations(i);
    for (std::size_t i : wanted) {
      if (detached_[i]) continue;  // duplicated drain request
      StreamHandoff h = package_handoff(i);
      h.live_drain = true;
      out.push_back(std::move(h));
      detached_[i] = 1;  // producers see this after the gate lowers
    }
    // Make the detachment durable before publishing the hand-offs: once
    // a peer adopts, a crash+recovery here must not re-hand these
    // streams off (drain_streams skips detached).
    if (durable() && !out.empty()) write_snapshot_now();
  });

  {
    std::lock_guard<std::mutex> lk(drain_mu_);
    for (StreamHandoff& h : out) drained_out_.push_back(std::move(h));
  }
  drain_ready_.store(true, std::memory_order_release);
}

void StreamServer::run() {
  if (ran_) throw std::logic_error("StreamServer: a server instance runs once");
  ran_ = true;
  setup_model_cache();
  prepare_durability();

  const std::size_t k = streams_.size();
  std::vector<std::unique_ptr<runtime::BoundedQueue<ReadyWindow>>> queues;
  queues.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    queues.push_back(std::make_unique<runtime::BoundedQueue<ReadyWindow>>(
        config_.queue_capacity));
  }

  runtime::Supervisor supervisor(config_.backoff, kSupervisorSeed);
  for (std::size_t i = 0; i < k; ++i) {
    runtime::BoundedQueue<ReadyWindow>& q = *queues[i];
    supervisor.add_stage(
        streams_[i]->config().name,
        [this, i, &q, &supervisor] { produce(i, q, supervisor); },
        [this, i] {
          // Retry budget exhausted: the stream is down. Latch its health
          // monitor so any window still in flight gates fail-safe; the
          // other K-1 streams are unaffected.
          down_[i] = 1;
          streams_[i]->health().latch_fail_safe();
        },
        [this, i, &q] {
          finished_[i].store(1, std::memory_order_release);
          q.close();
        });
  }
  supervisor.start();

  BatcherConfig bcfg = config_.batcher;
  bcfg.max_batch = effective_max_batch();
  MicroBatcher batcher(bcfg);
  if (config_.switch_mode == SwitchMode::Pipelined) {
    // Hold back groups whose model is still loading; the other weathers
    // keep batching on their resident models meanwhile — the zero-downtime
    // property. Scenes outside the cache (no registered model) stay
    // servable: they degrade through the daytime fallback at serve time
    // and must never deadlock the batcher.
    batcher.set_servable([this](Weather w) {
      const std::string scene = scene_name(w);
      return !cache_->registered(scene) || cache_->resident(scene);
    });
  }

  try {
    std::size_t rr = 0;  // rotate which queue takes the idle block
    for (;;) {
      // Cooperative drain point: a slow-but-alive shard honors the
      // fleet's hand-off request here, between batches, with no crash
      // and no recovery pass.
      if (drain_requested_.load(std::memory_order_acquire)) {
        cooperative_drain(queues, batcher);
      }
      if (snapshot_due()) barrier_snapshot(queues, batcher);
      poll_load(batcher);

      bool all_drained = true;
      bool progressed = false;
      for (std::size_t j = 0; j < k; ++j) {
        const std::size_t idx = (rr + j) % k;
        journal_recalibrations(idx);
        runtime::BoundedQueue<ReadyWindow>& q = *queues[idx];
        while (std::optional<ReadyWindow> w = q.pop(std::chrono::milliseconds(0))) {
          progressed = true;
          accept(batcher, std::move(*w));
        }
        if (!q.drained()) all_drained = false;
      }
      rr = (rr + 1) % k;

      // Work-conserving dispatch: fire until no servable window is staged.
      // Firing only one batch per pass would move the backlog out of the
      // bounded queues into the unbounded batcher.
      const auto dispatched = Clock::now();
      while (std::optional<Batch> batch = batcher.next()) {
        progressed = true;
        decide_batch(*batch, dispatched);
        // Check cadence per batch, not only at the loop top: a snapshot
        // needs every produced window applied, and each window drained
        // into the batcher past this point pushes that consistent cut
        // further away. Firing here keeps the barrier's early flush (and
        // therefore the snapshot interval) as small as the backlog allows.
        if (snapshot_due()) barrier_snapshot(queues, batcher);
      }

      if (all_drained && batcher.empty()) break;
      if (!progressed) {
        // Nothing arrived and nothing servable is staged: block briefly on
        // one queue.
        if (std::optional<ReadyWindow> w = queues[rr]->pop(to_ms(kPopTimeoutMs))) {
          accept(batcher, std::move(*w));
        }
      }
    }
    // The loop only exits with the batcher empty; flush defends against a
    // future policy change leaving a remainder.
    while (std::optional<Batch> batch = batcher.flush()) decide_batch(*batch, Clock::now());
    // A load still in flight at the end (its windows were all served via
    // blocking paths) must land before the cache stats are read.
    if (load_ != nullptr) {
      while (!load_->done.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      finish_load();
    }
  } catch (...) {
    // The simulated kill (or a real I/O failure) struck the consumer.
    // Lower the barrier so parked producers can observe the stop flag,
    // stop everything, and let the exception carry the crash out — the
    // on-disk journal/snapshot state is exactly what recovery must face.
    load_.reset();  // LoadOp's destructor joins the loader thread
    {
      std::lock_guard<std::mutex> lk(park_mu_);
      snapshot_gate_.store(false, std::memory_order_release);
    }
    park_cv_.notify_all();
    supervisor.stop_and_join();
    throw;
  }

  supervisor.join();
  for (std::size_t i = 0; i < k; ++i) journal_recalibrations(i);
  for (std::size_t i = 0; i < k; ++i) {
    shed_[i] = queues[i]->shed();
    high_water_[i] = queues[i]->high_water();
  }
  stage_restarts_ = supervisor.total_restarts();
  streams_gave_up_ = supervisor.stages_gave_up();
  finish_durability();
}

void StreamServer::run_sequential() {
  if (ran_) throw std::logic_error("StreamServer: a server instance runs once");
  ran_ = true;
  prepare_durability();

  for (std::size_t i = 0; i < streams_.size(); ++i) {
    StreamContext& ctx = *streams_[i];
    while (ctx.frames_run() < config_.frames) {
      std::optional<ReadyWindow> w = ctx.tick();
      journal_recalibrations(i);
      if (!w) continue;
      w->stream = i;
      if (apply_replayed(*w)) {
        if (snapshot_due()) write_snapshot_now();
        continue;
      }
      if (w->gate != DecisionSource::Model) {
        decide_fail_safe(*w);
        if (snapshot_due()) write_snapshot_now();
        continue;
      }
      const std::optional<Weather> served = serve_weather(w->model_weather);
      if (!served) {
        w->gate = DecisionSource::FailSafeSwitchInFlight;
        decide_fail_safe(*w);
        if (snapshot_due()) write_snapshot_now();
        continue;
      }
      Timer latency;
      core::SafeCross::Decision d = engine_.classify_as(*served, w->window);
      const double ms = latency.elapsed_ms();
      // Classifier-time deadline; off by default.
      if (ctx.health().deadline_blown(ms)) {
        d.warn = true;
        d.predicted_class = 0;
        d.source = DecisionSource::FailSafeDeadline;
      }
      if (journal_.is_open()) journal_.append(decision_record(*w, d, ms));
      ctx.apply(*w, d.predicted_class, d.prob_danger, d.warn, d.source);
      ++decisions_since_snapshot_;
      note_applied(ms);
      if (snapshot_due()) write_snapshot_now();
    }
  }
  finish_durability();
}

}  // namespace safecross::serving
