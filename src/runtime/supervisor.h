#pragma once
// Crash-restart supervision for StreamServer's per-stream producers.
//
// A producer thread that dies must degrade the warning service, never
// kill it. The Supervisor owns one thread per registered stage and
// implements the classic supervision loop:
//
//   run body ──throws──▶ restart after capped exponential backoff + jitter
//        │                     │ (attempt <= max_restarts)
//        │ returns             │ attempt > max_restarts
//        ▼                     ▼
//   clean exit            give up: run the stage's degraded
//                         fallback body (the server marks the
//                         stream down and latches its
//                         HealthMonitor into FailSafe)
//
// The backoff policy (initial delay, multiplier, cap, jitter, retry
// budget) is shared infrastructure: backoff_delay_ms() and
// retry_with_backoff() are also used by ModelStore's transient-read
// retries, so every retry loop in the system ages the same way.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace safecross::runtime {

/// Capped exponential backoff with jitter. The retry budget bounds how
/// many times a failing operation is re-attempted before the caller
/// declares it dead (a supervisor gives up; a loader reports the file bad).
struct BackoffPolicy {
  double initial_ms = 1.0;   // delay before the first retry
  double multiplier = 2.0;   // delay growth per consecutive failure
  double max_ms = 200.0;     // delay cap (keeps recovery probes flowing)
  double jitter_frac = 0.2;  // +/- uniform fraction applied to each delay
  int max_restarts = 5;      // retry budget; exceeding it means giving up
};

/// Delay in ms before retry number `attempt` (1-based): initial_ms *
/// multiplier^(attempt-1), capped at max_ms, jittered by +/- jitter_frac.
double backoff_delay_ms(const BackoffPolicy& policy, int attempt, Rng& rng);

/// Outcome of retry_with_backoff: whether `attempt` eventually returned
/// true, and how many times it ran (1 = first try succeeded).
struct RetryResult {
  bool ok = false;
  int attempts = 0;
};

/// Run `attempt` up to 1 + policy.max_restarts times, sleeping the policy
/// backoff between failures. `sleep_ms` overrides the real sleep (tests,
/// or callers that must remain responsive); pass nullptr for
/// std::this_thread::sleep_for.
RetryResult retry_with_backoff(const BackoffPolicy& policy, std::uint64_t seed,
                               const std::function<bool()>& attempt,
                               const std::function<void(double)>& sleep_ms = nullptr);

class Supervisor {
 public:
  /// A stage body runs the stage's whole consume/produce loop and returns
  /// normally on clean shutdown. Throwing is a crash.
  using Body = std::function<void()>;

  explicit Supervisor(BackoffPolicy policy = {}, std::uint64_t seed = 0x5AFEC805u);
  /// Stops and joins any still-running stages.
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Register a stage before start().
  ///   body     — the supervised loop; restarted with backoff on throw.
  ///   fallback — degraded-mode body run after the retry budget is
  ///              exhausted (exceptions inside it are swallowed; it is
  ///              the last line of defence, not a restart candidate).
  ///   on_exit  — always runs when the stage thread terminates, whatever
  ///              the path (clean, gave-up, stop): close downstream
  ///              queues here so consumers never wait on a dead producer.
  void add_stage(std::string name, Body body, Body fallback = nullptr, Body on_exit = nullptr);

  void start();
  /// Wait for every stage thread to finish on its own (normal pipeline
  /// completion: sources exhaust, queues drain, sinks exit).
  void join();
  /// Abnormal termination: raise the stop flag (visible to bodies via
  /// stop_requested()), interrupt any backoff sleep, and join.
  void stop_and_join();

  bool stop_requested() const { return stop_.load(std::memory_order_acquire); }

  // --- scorecard (exact once joined) ---
  std::size_t stage_count() const { return stages_.size(); }
  const std::string& stage_name(std::size_t i) const { return stages_[i]->name; }
  std::size_t restarts(std::size_t i) const { return stages_[i]->restarts.load(); }
  bool gave_up(std::size_t i) const { return stages_[i]->gave_up.load(); }
  std::size_t total_restarts() const;
  std::size_t stages_gave_up() const;

 private:
  struct Stage {
    std::string name;
    Body body;
    Body fallback;
    Body on_exit;
    std::thread thread;
    std::atomic<std::size_t> restarts{0};
    std::atomic<bool> gave_up{false};
  };

  void run_stage(Stage& stage, std::uint64_t seed);
  /// Sleep `ms`, waking early if stop is requested; false on early wake.
  bool interruptible_sleep(double ms);

  BackoffPolicy policy_;
  std::uint64_t seed_;
  std::vector<std::unique_ptr<Stage>> stages_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
};

}  // namespace safecross::runtime
