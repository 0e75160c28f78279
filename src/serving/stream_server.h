#pragma once
// StreamServer: K simulated intersections multiplexed onto one shared
// SafeCross inference engine.
//
// Batched mode (run()):
//
//   stream 0 producer ──q0──┐
//   stream 1 producer ──q1──┼──▶ batcher thread ──▶ one (N,1,T,H,W)
//   ...                     │    (weather-grouped,   forward pass per
//   stream K-1 ───────qK-1──┘     work-conserving)   batch, verdicts
//                                                    scattered back
//
// Each stream runs as a supervised producer thread ticking its own
// StreamContext and pushing ReadyWindows into a per-stream BoundedQueue
// (backpressure first, oldest-first shedding past the push timeout when
// shed_on_overload is set). The calling thread drains all queues into a
// MicroBatcher, fires weather-uniform batches until no servable window is
// staged, runs one batched forward pass per batch, and scatters the
// verdicts back onto each stream's scorecard. Fail-safe-gated windows
// bypass the batcher — their verdict is already resolved and must not
// wait on batch formation.
//
// Sequential mode (run_sequential()): the reference implementation —
// each stream alone, in order, every model-gated decision classified
// N=1 the moment it is due. At K = 1 this is how a single camera runs.
//
// Correctness contract, pinned by tests/test_stream_server.cpp: with the
// deadline check disabled (the default), run() and run_sequential() over
// identically configured streams produce bit-identical per-stream
// verdict traces and scorecards. Batching changes only how the GEMM
// backend is fed — never a verdict. Producer crashes within the
// supervisor's retry budget replay the crashed frame and also change
// nothing.
//
// Fault isolation: a producer that exhausts its retry budget runs a
// degraded fallback that marks the stream down and latches its health
// monitor; its queue closes so the batcher never waits on it, and every
// other stream keeps producing and deciding.
//
// A server instance runs its streams exactly once (the contexts are
// consumed); build a fresh server to rerun a scenario.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/safecross.h"
#include "runtime/bounded_queue.h"
#include "runtime/journal.h"
#include "runtime/supervisor.h"
#include "serving/micro_batcher.h"
#include "serving/snapshot.h"
#include "serving/stream.h"
#include "switching/model_cache.h"

namespace safecross::serving {

/// How the batched server realizes model switches (DESIGN.md §14).
///
/// Legacy      — no switch cost is modelled: every model is always
///               servable, there is no warm cache and no data movement.
///               (The engine's discrete-event ModelSwitcher is the offline
///               Table VI model only; the server never drives it.)
/// StopAndStart— a single-resident ModelCache; every batch whose weather
///               is not resident stalls the deciding thread for a real
///               sequential weight load (the paper's ablation arm).
/// Pipelined   — a dual-resident ModelCache; the old model keeps serving
///               batches while the incoming model loads layer-group by
///               layer-group through the switching executor on a loader
///               thread, with Begin/Commit/Abort write-ahead journaled.
///
/// All three modes produce bit-identical verdicts: residency is a latency
/// model, never verdict-bearing — a verdict depends only on the window
/// bytes and the serving weather's weights. Which weights serve is a pure
/// choice (serve_weather): the window's own weather model when the engine
/// has one, else the daytime model, else none (fail-safe).
enum class SwitchMode : std::uint8_t { Legacy = 0, StopAndStart = 1, Pipelined = 2 };

const char* switch_mode_name(SwitchMode m);

/// Crash-consistent durability for a server run. When `dir` is set the
/// server keeps a write-ahead journal of every emitted decision (appended
/// and flushed *before* the verdict touches a scorecard) plus periodic
/// atomic snapshots of all resumable stream state, so a killed run can be
/// resumed with recover() and produce the exact decision stream the
/// uninterrupted run would have.
///
/// Durable runs require shed_on_overload == false: a shed window is a
/// decision that never happens at a wall-clock-dependent point, which no
/// deterministic recovery can reproduce. The constructor enforces this.
struct DurabilityConfig {
  std::filesystem::path dir;  // empty → durability off
  /// Snapshot cadence in applied decisions; 0 → journal-only (recovery
  /// replays the whole run from genesis, deduping against the journal).
  std::size_t snapshot_every_decisions = 64;
  std::size_t keep_snapshots = 2;  // generations retained after each write
  runtime::JournalConfig journal;
  /// Chaos-harness hook; fires CrashInjected at armed crash points inside
  /// the journal-append and snapshot-write paths. Not owned.
  runtime::CrashInjector* crash = nullptr;

  bool enabled() const { return !dir.empty(); }
};

/// What recover() found on disk and what it did about it. Corruption is
/// never fatal: a torn journal tail is dropped (the lost decisions are
/// re-derived deterministically) and a corrupt newest snapshot falls back
/// to the previous good generation (or genesis).
struct RecoveryReport {
  bool recovered_from_snapshot = false;
  std::uint64_t snapshot_generation = 0;
  std::vector<std::string> snapshots_rejected;  // "file: reason", newest first
  std::uint64_t journal_records = 0;   // valid prefix length (all streams)
  std::uint64_t journal_pending = 0;   // journaled decisions newer than the snapshot
  // Journaled recalibrations newer than the snapshot: the re-run must
  // re-derive each one bit-identically (calibration lineage verification).
  std::uint64_t journal_pending_recalibrations = 0;
  std::uint64_t journal_bytes_dropped = 0;  // torn/corrupt tail bytes truncated
  bool journal_missing = false;
  bool journal_bad_header = false;
  bool journal_torn_tail = false;
  std::string journal_tail_error;
  // Serving-path switch protocol audit (ModelSwitch{Begin,Commit,Abort}).
  std::uint64_t journal_switch_begins = 0;
  std::uint64_t journal_switch_commits = 0;
  std::uint64_t journal_switch_aborts = 0;
  /// Begins with no terminal record — a mid-switch kill. The resumed run
  /// closes each with an Abort (reason = closed-by-recovery) as soon as
  /// the journal re-opens, so every switch_id ends exactly-once terminal.
  std::uint64_t switches_aborted_on_recovery = 0;
};

/// One stream's complete resumable identity, drained from a recovered
/// server for re-placement onto another server (fleet failover). Carries
/// the stream's config, its serialized StreamContext state (which
/// includes the per-seq verdict trace — the merged-decision-sequence
/// vehicle), and the journal replay sets newer than the snapshot, so the
/// adopting server continues the stream bit-identically: re-produced
/// windows dedupe against `pending` exactly as an in-place recovery
/// would.
struct StreamHandoff {
  StreamConfig config;
  std::string state;  // StreamContext::save_state payload
  bool down = false;  // gave up in the dead run; stays down after adoption
  std::map<std::uint64_t, runtime::DecisionEntry> pending;
  std::map<std::uint64_t, runtime::RecalibrationEntry> pending_recalib;
  std::size_t frames_run = 0;        // progress at the snapshot cut
  std::size_t windows_produced = 0;  // decision ordinal resume point
  // True when the hand-off left a *live* server through the cooperative
  // drain point (request_drain) rather than a post-mortem recovery.
  bool live_drain = false;
};

struct StreamServerConfig {
  std::vector<StreamConfig> streams;
  std::size_t frames = 30 * 60;  // frame slots per stream (~60 s at 30 Hz)
  BatcherConfig batcher;         // batcher.max_batch == 0 → streams.size()
  std::size_t queue_capacity = 16;  // per-stream ready-window queue depth
  double push_timeout_ms = 250.0;   // producer backpressure budget
  // Past the push timeout: true sheds the oldest queued window (live
  // serving — freshest advice wins), false keeps pushing (pure
  // backpressure; parity runs lose nothing).
  bool shed_on_overload = true;
  // Artificial per-batch inference delay — the overload knob for the
  // shedding/starvation tests and the bench. 0 off.
  double decide_delay_ms = 0.0;
  runtime::BackoffPolicy backoff;      // producer crash-restart policy
  bool record_traces = false;          // keep per-seq verdict traces
  DurabilityConfig durability;         // checkpoint/journal layer (off by default)
  /// Serving-path switch realization. Batched run() only —
  /// run_sequential() is the switch-free-equivalent oracle and always
  /// runs the Legacy path.
  SwitchMode switch_mode = SwitchMode::Legacy;
  /// Warm-cache geometry for StopAndStart/Pipelined (capacity is forced
  /// to 1 under StopAndStart — single residency IS the ablation).
  switching::ModelCacheConfig model_cache;
  /// Weathers to load into the cache at boot (non-Legacy modes), in
  /// order, before the first window is served — typically
  /// ModelStore::warm_manifest. Pre-warmed weathers are resident from
  /// decision one, so the first serving window never pays the
  /// servability holdback. Prewarm never evicts: it fills empty cache
  /// capacity and stops at the first weather that no longer fits.
  /// Unjournaled and deterministic, so recovered runs re-warm
  /// identically.
  std::vector<Weather> prewarm;
};

/// One fired batch, for the bench/tests to audit batching behaviour.
struct BatchRecord {
  Weather weather = Weather::Daytime;
  std::uint32_t epoch = 0;
  std::size_t size = 0;
  /// Capture of the batch's first-staged window → the dispatch round that
  /// fired it (queue and staging waits included).
  double max_wait_ms = 0.0;
  /// True when the batch fired below max_batch. The name predates
  /// work-conserving dispatch, when only a batch deadline fired partial
  /// groups; perfbench/perfbench.cpp reads it under this name.
  bool fired_by_deadline = false;
};

class StreamServer {
 public:
  /// The engine should hold a model for every weather the streams (and
  /// their switch schedules) will request; a window whose weather has no
  /// model is judged by the daytime model, and by no model at all
  /// (FailSafeSwitchInFlight) when the daytime model is missing too. The
  /// server only reads the engine: it never drives its ModelSwitcher.
  StreamServer(core::SafeCross& engine, StreamServerConfig config);

  StreamServer(const StreamServer&) = delete;
  StreamServer& operator=(const StreamServer&) = delete;

  /// Batched serving: supervised producer threads + the micro-batching
  /// inference loop on the calling thread. Returns when every stream has
  /// run config.frames slots (or gone down) and all verdicts are scored.
  void run();

  /// Sequential reference: bit-identical verdicts to run(); see header.
  void run_sequential();

  /// Load the durable state a killed run left in config.durability.dir:
  /// newest valid snapshot (corrupt generations are skipped with reasons),
  /// then the journal's valid prefix; decisions journaled after the
  /// snapshot become the replay set that dedupes re-produced windows, and
  /// any torn journal tail is truncated (its decisions re-derive
  /// deterministically). Call before run()/run_sequential(); the
  /// subsequent run continues the killed run so that the concatenated
  /// decision stream is bit-identical to an uninterrupted run. Throws
  /// only on operator error (durability off, already ran, config
  /// fingerprint mismatch) — on-disk corruption degrades, never throws.
  RecoveryReport recover();

  bool recovered() const { return recovered_; }
  const RecoveryReport& recovery_report() const { return recovery_; }

  /// Fleet failover, step 2 (after recover()): extract every stream's
  /// resumable state for re-placement onto surviving servers. Consumes
  /// this server — it can no longer run; the hand-off *is* the drain.
  /// Deterministic: two independent recover()+drain_streams() passes over
  /// the same durable dir yield byte-identical hand-offs (double-failover
  /// safe — the dir is read-mostly, only the torn tail is truncated).
  std::vector<StreamHandoff> drain_streams();

  /// Fleet failover, step 3: restore stream i from a hand-off drained
  /// from a dead server. Must be called before run()/run_sequential();
  /// config_.streams[i] must be the hand-off's config (name-checked).
  /// The adopting server picks up mid-stream: the context resumes at the
  /// snapshot cut, journaled-but-unsnapshotted verdicts replay via the
  /// pending set, and the producer-crash schedule fast-forwards past
  /// frames already lived. A durable adopting server journals the
  /// continuation into its *own* dir — the dead shard's dir plus the
  /// wave dirs together form the audit trail.
  void adopt_stream(std::size_t i, const StreamHandoff& h);

  // --- cooperative drain (fleet gray-failure path) ---
  // A slow-but-alive shard hands streams to idle peers *mid-run*, without
  // a crash or a recovery pass. request_drain() (any thread) marks the
  // wanted streams; the deciding thread honors it at its next drain
  // point: producers park at the snapshot barrier, every produced window
  // is decided (batcher fully flushed — parity-safe, verdicts are
  // batch-composition invariant), the drained streams' quiescent state
  // is packaged into StreamHandoffs exactly as a recovery drain would,
  // the streams are marked detached (their producers exit; a durable
  // server also snapshots, so a later crash cannot resurrect them), and
  // the rest of the server keeps serving. take_drained() (any thread)
  // collects the hand-offs once drain_ready() turns true.

  /// Ask the serving loop to hand off these streams at its next
  /// quiescent point. Batched run() only; indices out of range or
  /// already-detached are ignored.
  void request_drain(std::vector<std::size_t> streams);
  bool drain_ready() const { return drain_ready_.load(std::memory_order_acquire); }
  std::vector<StreamHandoff> take_drained();
  /// Streams handed off through the cooperative drain point so far.
  std::size_t streams_detached() const;
  bool stream_detached(std::size_t i) const { return detached_[i] != 0; }

  std::size_t stream_count() const { return streams_.size(); }
  const StreamContext& stream(std::size_t i) const { return *streams_[i]; }
  StreamContext& stream(std::size_t i) { return *streams_[i]; }

  /// Stream i's producer exhausted its retry budget (batched mode only).
  bool stream_down(std::size_t i) const { return down_[i] != 0; }
  /// Ready windows stream i lost to overload shedding (batched mode only).
  std::size_t windows_shed(std::size_t i) const { return shed_[i]; }
  std::size_t windows_shed_total() const;
  std::size_t queue_high_water(std::size_t i) const { return high_water_[i]; }

  std::size_t total_decisions() const;

  // --- live progress (fleet heartbeat observability) ---
  // Readable from another thread while run() is on-CPU: a relaxed atomic,
  // single writer (the deciding thread). Never decision-bearing — a fleet
  // heartbeat samples it, and wall-clock jitter in when it looks can
  // never perturb a verdict.
  /// Max capture→verdict latency seen so far (ms).
  double latency_watermark_ms() const {
    return latency_watermark_ms_.load(std::memory_order_relaxed);
  }

  // --- batched-mode scorecard ---
  const std::vector<BatchRecord>& batch_log() const { return batch_log_; }
  std::size_t windows_batched() const { return windows_batched_; }
  std::size_t stage_restarts() const { return stage_restarts_; }
  std::size_t streams_gave_up() const { return streams_gave_up_; }
  std::size_t crashes_injected() const {
    return crashes_injected_.load(std::memory_order_relaxed);
  }

  // --- serving-path switching (non-Legacy modes) ---
  /// The warm per-weather model cache, or nullptr under SwitchMode::Legacy
  /// (also null before run()). Loads/evictions/wall time in its stats.
  const switching::ModelCache* model_cache() const { return cache_.get(); }
  /// Switches committed / aborted at run time (recovery-closed aborts are
  /// counted in RecoveryReport::switches_aborted_on_recovery instead).
  std::size_t switches_committed() const { return switches_committed_; }
  std::size_t switches_aborted() const { return switches_aborted_; }
  /// Queued pipelined loads dropped because their weather's demand had
  /// already flipped away before the load started (switch-storm dedupe).
  std::size_t loads_dropped_stale() const { return loads_dropped_stale_; }
  /// Models loaded at boot from config.prewarm.
  std::size_t models_prewarmed() const { return models_prewarmed_; }
  /// Capture→verdict latency of every applied decision, in apply order
  /// (deciding thread only; the switch-storm bench reads p99 from this).
  const std::vector<double>& latency_log() const { return latency_log_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// Producer body for stream i (runs under the supervisor).
  void produce(std::size_t i, runtime::BoundedQueue<ReadyWindow>& queue,
               runtime::Supervisor& supervisor);
  /// Route one popped window: replayed verdicts apply from the journal,
  /// fail-safe verdicts apply immediately, model-gated windows stage into
  /// the batcher.
  void accept(MicroBatcher& batcher, ReadyWindow w);
  void decide_fail_safe(const ReadyWindow& w);
  /// Latency bookkeeping for every applied decision (deciding thread
  /// only; fleet heartbeats read the watermark).
  void note_applied(double latency_ms) {
    if (latency_ms > latency_watermark_ms_.load(std::memory_order_relaxed)) {
      latency_watermark_ms_.store(latency_ms, std::memory_order_relaxed);
    }
    latency_log_.push_back(latency_ms);
  }
  /// One batched forward pass + scatter; appends to the batch log, with
  /// the batch's wait measured up to `dispatched`.
  void decide_batch(Batch& batch, Clock::time_point dispatched);
  /// The weather whose model judges a `weather` window: its own model,
  /// else the daytime fallback, else nullopt (the engine has neither).
  /// Shared by both modes so they cannot drift.
  std::optional<Weather> serve_weather(Weather weather) const;

  std::size_t effective_max_batch() const {
    return config_.batcher.max_batch == 0 ? streams_.size() : config_.batcher.max_batch;
  }

  // --- serving-path switching (non-Legacy modes; deciding thread only
  // unless noted) ---

  /// One in-flight pipelined load: the loader thread runs the cache
  /// transfer (real data movement) while the deciding thread keeps serving
  /// batches on the resident models. The destructor joins.
  struct LoadOp {
    Weather weather = Weather::Daytime;
    std::string scene;
    std::uint64_t switch_id = 0;
    std::atomic<bool> done{false};
    std::exception_ptr error;  // written before done; read after
    switching::ExecutorResult result;
    std::thread worker;
    ~LoadOp() {
      if (worker.joinable()) worker.join();
    }
  };

  /// Build the cache with the R50 profile for every weather the engine
  /// holds (batched run() under non-Legacy modes).
  void setup_model_cache();
  /// Queue a (deduped) async load request for a non-resident weather.
  void request_load(Weather weather);
  /// Drive the async load machinery one step: finalize a finished load
  /// (commit + journal), then start the next wanted one that fits.
  void poll_load(MicroBatcher& batcher);
  void start_next_load(MicroBatcher& batcher);
  /// Join + commit (or abort) the in-flight load. A CrashInjected captured
  /// on the loader thread rethrows here, on the deciding thread.
  void finish_load();
  /// Synchronous residency for a batch about to be decided: finalize any
  /// in-flight load, then block-load if still not resident. The normal
  /// pipelined path never stalls here (servability held the batch until
  /// commit); flush/barrier edges and the whole StopAndStart mode do —
  /// under StopAndStart this stall IS the measured switch. Load failure
  /// journals an Abort and returns: residency is a latency model only,
  /// never verdict-bearing, so the batch is decided regardless.
  void ensure_resident_blocking(Weather weather);
  void journal_switch_phase(runtime::JournalRecordType type, std::uint64_t switch_id,
                            std::uint8_t weather, double wall_ms, std::uint8_t reason = 0);

  // --- durability layer ---
  bool durable() const { return config_.durability.enabled(); }
  /// Seeds/schedules/geometry the snapshot must match to be resumable.
  std::uint64_t config_fingerprint() const;
  /// Open the journal (and the snapshot store when absent). Refuses to
  /// append onto pre-existing durable state unless recover() ran first.
  void prepare_durability();
  void finish_durability();
  /// If the journal holds a verdict for (w.stream, w.seq), apply it —
  /// no inference, no re-append — and return true (exactly-once dedupe).
  bool apply_replayed(const ReadyWindow& w);
  /// Write-ahead append of one decision (no-op when durability is off).
  void journal_decision(const ReadyWindow& w, const core::SafeCross::Decision& d,
                        double latency_ms);
  /// Drain stream i's completed-recalibration outbox onto the deciding
  /// thread: journal each entry, except ones the recovered journal already
  /// holds — those are verified bit-exactly against the re-derived lineage
  /// (divergence throws) and skipped (exactly-once). Runs on the deciding
  /// thread only; a no-op for streams without a recalibration loop.
  void journal_recalibrations(std::size_t i);
  bool snapshot_due() const {
    return durable() && config_.durability.snapshot_every_decisions > 0 &&
           decisions_since_snapshot_ >= config_.durability.snapshot_every_decisions;
  }
  template <class Self, class A>
  static void persist_snapshot(Self& self, A& a);
  std::string snapshot_payload() const;
  /// Decode a snapshot payload into this server. Returns "" on success;
  /// on a payload that does not decode, returns why and leaves the state
  /// reset_snapshot_state() builds. A config mismatch throws.
  std::string load_snapshot_payload(const std::string& payload);
  /// The state a snapshot restores, as the constructor builds it from
  /// config: fresh streams, no windows batched, none down or detached.
  void reset_snapshot_state();
  /// Serialize + atomically publish one snapshot generation. Caller must
  /// be at a quiescent point (every produced window applied).
  void write_snapshot_now();
  /// Batched-mode quiescent barrier: park all producers between ticks,
  /// drain every queue, flush the batcher (verdicts are batch-composition
  /// invariant, so early firing is parity-safe), snapshot, release.
  void barrier_snapshot(std::vector<std::unique_ptr<runtime::BoundedQueue<ReadyWindow>>>& queues,
                        MicroBatcher& batcher);
  /// Park everyone at the barrier and decide every produced window, then
  /// run `at_quiescence` before releasing — the shared skeleton of
  /// barrier_snapshot and the cooperative drain.
  template <typename Fn>
  void quiesce(std::vector<std::unique_ptr<runtime::BoundedQueue<ReadyWindow>>>& queues,
               MicroBatcher& batcher, Fn&& at_quiescence);
  /// Execute a pending request_drain at the deciding thread's drain point.
  void cooperative_drain(std::vector<std::unique_ptr<runtime::BoundedQueue<ReadyWindow>>>& queues,
                         MicroBatcher& batcher);
  /// Package stream i's quiescent state as a hand-off (shared by
  /// drain_streams and cooperative_drain).
  StreamHandoff package_handoff(std::size_t i);

  core::SafeCross& engine_;
  StreamServerConfig config_;
  std::vector<std::unique_ptr<StreamContext>> streams_;
  std::vector<std::size_t> crash_pos_;  // next crash_frames index, per stream
  std::vector<char> down_;
  std::vector<char> detached_;  // handed off mid-run via cooperative drain
  std::vector<std::size_t> shed_;
  std::vector<std::size_t> high_water_;
  std::vector<BatchRecord> batch_log_;
  std::size_t windows_batched_ = 0;
  std::size_t stage_restarts_ = 0;
  std::size_t streams_gave_up_ = 0;
  std::atomic<std::size_t> crashes_injected_{0};
  std::atomic<double> latency_watermark_ms_{0.0};
  std::vector<double> latency_log_;  // deciding thread only
  bool ran_ = false;

  // --- serving-path switching state (deciding thread only) ---
  std::unique_ptr<switching::ModelCache> cache_;  // null under Legacy
  std::unique_ptr<LoadOp> load_;                  // at most one in flight
  std::deque<Weather> want_;      // deduped async load requests, FIFO-ish
  std::string last_served_scene_;  // never evicted while a load runs
  /// Most recent window weather per stream (deciding thread) — the live
  /// demand signal the stale-load drop checks queued loads against.
  std::vector<Weather> last_window_weather_;
  std::uint64_t next_switch_id_ = 1;
  std::size_t switches_committed_ = 0;
  std::size_t switches_aborted_ = 0;
  std::size_t loads_dropped_stale_ = 0;
  std::size_t models_prewarmed_ = 0;
  /// Begin records recovery found without a terminal; closed with Abort
  /// (reason = closed-by-recovery) when the journal re-opens.
  struct DanglingSwitch {
    std::uint64_t switch_id = 0;
    std::uint8_t weather = 0;
  };
  std::vector<DanglingSwitch> dangling_switches_;

  // --- durability state ---
  runtime::Journal journal_;
  std::unique_ptr<SnapshotStore> snapshots_;
  /// Journaled-but-not-snapshotted verdicts awaiting their re-produced
  /// window, per stream, keyed by seq. Consumed on the deciding thread.
  std::vector<std::map<std::uint64_t, runtime::DecisionEntry>> pending_;
  /// Journaled-but-not-snapshotted recalibrations awaiting their
  /// re-derived twin, per stream, keyed by frame. Consumed on the
  /// deciding thread (journal_recalibrations).
  std::vector<std::map<std::uint64_t, runtime::RecalibrationEntry>> pending_recalib_;
  std::size_t decisions_since_snapshot_ = 0;
  bool recovered_ = false;
  RecoveryReport recovery_;

  // Batched-mode snapshot barrier: producers park between ticks while the
  // gate is up; the consumer drains, snapshots, then lowers the gate.
  std::atomic<bool> snapshot_gate_{false};
  std::mutex park_mu_;
  std::condition_variable park_cv_;
  std::unique_ptr<std::atomic<char>[]> parked_;
  std::unique_ptr<std::atomic<char>[]> finished_;

  // Cooperative-drain rendezvous (request side: any thread; execution:
  // the deciding thread at its drain point).
  std::atomic<bool> drain_requested_{false};
  std::atomic<bool> drain_ready_{false};
  std::mutex drain_mu_;                 // guards drain_set_ / drained_out_
  std::vector<std::size_t> drain_set_;
  std::vector<StreamHandoff> drained_out_;
};

}  // namespace safecross::serving
