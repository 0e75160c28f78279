#include "runtime/supervisor.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/logging.h"

namespace safecross::runtime {

double backoff_delay_ms(const BackoffPolicy& policy, int attempt, Rng& rng) {
  const double exponent = std::max(0, attempt - 1);
  double delay = policy.initial_ms * std::pow(policy.multiplier, exponent);
  delay = std::min(policy.max_ms, delay);
  if (policy.jitter_frac > 0.0) {
    delay *= 1.0 + policy.jitter_frac * (2.0 * rng.uniform() - 1.0);
  }
  return std::max(0.0, delay);
}

RetryResult retry_with_backoff(const BackoffPolicy& policy, std::uint64_t seed,
                               const std::function<bool()>& attempt,
                               const std::function<void(double)>& sleep_ms) {
  Rng rng(seed);
  RetryResult result;
  const int max_attempts = 1 + std::max(0, policy.max_restarts);
  for (int a = 1; a <= max_attempts; ++a) {
    result.attempts = a;
    if (attempt()) {
      result.ok = true;
      return result;
    }
    if (a < max_attempts) {
      const double delay = backoff_delay_ms(policy, a, rng);
      if (sleep_ms) {
        sleep_ms(delay);
      } else {
        std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(delay));
      }
    }
  }
  return result;
}

Supervisor::Supervisor(BackoffPolicy policy, std::uint64_t seed)
    : policy_(policy), seed_(seed) {}

Supervisor::~Supervisor() { stop_and_join(); }

void Supervisor::add_stage(std::string name, Body body, Body fallback, Body on_exit) {
  auto stage = std::make_unique<Stage>();
  stage->name = std::move(name);
  stage->body = std::move(body);
  stage->fallback = std::move(fallback);
  stage->on_exit = std::move(on_exit);
  stages_.push_back(std::move(stage));
}

void Supervisor::start() {
  started_ = true;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    Stage& stage = *stages_[i];
    // Per-stage rng seed: jitter sequences must not correlate across
    // stages or restarts would synchronize into thundering herds.
    const std::uint64_t seed = seed_ ^ (0x9E3779B97F4A7C15ull * (i + 1));
    stage.thread = std::thread([this, &stage, seed] { run_stage(stage, seed); });
  }
}

void Supervisor::join() {
  for (auto& stage : stages_) {
    if (stage->thread.joinable()) stage->thread.join();
  }
  started_ = false;
}

void Supervisor::stop_and_join() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(stop_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  stop_cv_.notify_all();
  join();
}

std::size_t Supervisor::total_restarts() const {
  std::size_t total = 0;
  for (const auto& stage : stages_) total += stage->restarts.load();
  return total;
}

std::size_t Supervisor::stages_gave_up() const {
  std::size_t total = 0;
  for (const auto& stage : stages_) total += stage->gave_up.load() ? 1 : 0;
  return total;
}

bool Supervisor::interruptible_sleep(double ms) {
  std::unique_lock<std::mutex> lock(stop_mutex_);
  return !stop_cv_.wait_for(lock, std::chrono::duration<double, std::milli>(ms),
                            [this] { return stop_.load(std::memory_order_acquire); });
}

void Supervisor::run_stage(Stage& stage, std::uint64_t seed) {
  Rng rng(seed);
  int attempt = 0;
  bool clean_exit = false;
  while (!stop_requested()) {
    try {
      stage.body();
      clean_exit = true;
      break;
    } catch (const std::exception& e) {
      ++attempt;
      if (attempt > policy_.max_restarts) {
        log_warn() << "supervisor: stage '" << stage.name << "' exhausted its retry budget ("
                   << policy_.max_restarts << "): " << e.what();
        break;
      }
      stage.restarts.fetch_add(1, std::memory_order_relaxed);
      log_warn() << "supervisor: stage '" << stage.name << "' crashed (" << e.what()
                 << "), restart " << attempt << "/" << policy_.max_restarts;
      if (!interruptible_sleep(backoff_delay_ms(policy_, attempt, rng))) break;
    } catch (...) {
      ++attempt;
      if (attempt > policy_.max_restarts) {
        log_warn() << "supervisor: stage '" << stage.name
                   << "' exhausted its retry budget (non-std exception)";
        break;
      }
      stage.restarts.fetch_add(1, std::memory_order_relaxed);
      if (!interruptible_sleep(backoff_delay_ms(policy_, attempt, rng))) break;
    }
  }
  if (!clean_exit && !stop_requested() && attempt > policy_.max_restarts) {
    stage.gave_up.store(true, std::memory_order_release);
    if (stage.fallback) {
      // Degraded mode: the fallback keeps the pipeline's contract alive
      // (conservative output, queues still moving). It gets no restarts —
      // if it dies too, on_exit still poisons the downstream queue so the
      // rest of the pipeline can wind down instead of deadlocking.
      try {
        stage.fallback();
      } catch (...) {
        log_warn() << "supervisor: fallback for stage '" << stage.name << "' failed";
      }
    }
  }
  if (stage.on_exit) {
    try {
      stage.on_exit();
    } catch (...) {
    }
  }
}

}  // namespace safecross::runtime
