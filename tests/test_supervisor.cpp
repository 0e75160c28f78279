// Supervisor + backoff machinery: a crashing stage restarts with capped
// exponential backoff; exhausting the retry budget fires the give-up hook
// and runs the degraded fallback; on_exit always runs so downstream
// queues get poisoned whatever path the stage dies on.

#include "runtime/supervisor.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace safecross::runtime {
namespace {

TEST(Backoff, DelayGrowsExponentiallyAndCaps) {
  BackoffPolicy policy;
  policy.initial_ms = 10.0;
  policy.multiplier = 2.0;
  policy.max_ms = 45.0;
  policy.jitter_frac = 0.0;  // deterministic
  Rng rng(1);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 1, rng), 10.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 2, rng), 20.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 3, rng), 40.0);
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 4, rng), 45.0);  // capped
  EXPECT_DOUBLE_EQ(backoff_delay_ms(policy, 9, rng), 45.0);
}

TEST(Backoff, JitterStaysWithinFraction) {
  BackoffPolicy policy;
  policy.initial_ms = 100.0;
  policy.max_ms = 100.0;
  policy.jitter_frac = 0.2;
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    const double delay = backoff_delay_ms(policy, 1, rng);
    EXPECT_GE(delay, 80.0);
    EXPECT_LE(delay, 120.0);
  }
}

TEST(Backoff, RetrySucceedsAfterTransientFailures) {
  BackoffPolicy policy;
  policy.max_restarts = 5;
  int calls = 0;
  std::vector<double> sleeps;
  const auto result = retry_with_backoff(
      policy, 42, [&] { return ++calls >= 3; },
      [&](double ms) { sleeps.push_back(ms); });
  EXPECT_TRUE(result.ok);
  EXPECT_EQ(result.attempts, 3);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeps.size(), 2u) << "one sleep between each pair of attempts";
}

TEST(Backoff, RetryExhaustsBudgetAndReportsAttempts) {
  BackoffPolicy policy;
  policy.max_restarts = 3;
  int calls = 0;
  const auto result = retry_with_backoff(
      policy, 42, [&] { ++calls; return false; }, [](double) {});
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.attempts, 1 + policy.max_restarts);
  EXPECT_EQ(calls, 1 + policy.max_restarts);
}

BackoffPolicy fast_policy(int max_restarts = 5) {
  BackoffPolicy policy;
  policy.initial_ms = 0.1;  // keep test wall-clock negligible
  policy.max_ms = 1.0;
  policy.max_restarts = max_restarts;
  return policy;
}

TEST(Supervisor, CleanStageRunsOnceAndJoins) {
  Supervisor sup(fast_policy());
  std::atomic<int> runs{0};
  std::atomic<bool> exited{false};
  sup.add_stage("clean", [&] { runs.fetch_add(1); }, nullptr,
                [&] { exited.store(true); });
  sup.start();
  sup.join();
  EXPECT_EQ(runs.load(), 1);
  EXPECT_TRUE(exited.load());
  EXPECT_EQ(sup.total_restarts(), 0u);
  EXPECT_EQ(sup.stages_gave_up(), 0u);
}

TEST(Supervisor, CrashingStageRestartsUntilItSucceeds) {
  Supervisor sup(fast_policy());
  std::atomic<int> runs{0};
  sup.add_stage("flaky", [&] {
    if (runs.fetch_add(1) < 3) throw std::runtime_error("transient");
  });
  sup.start();
  sup.join();
  EXPECT_EQ(runs.load(), 4) << "three crashes, then the clean run";
  EXPECT_EQ(sup.restarts(0), 3u);
  EXPECT_FALSE(sup.gave_up(0));
}

TEST(Supervisor, ExhaustedBudgetGivesUpAndRunsFallbackAndOnExit) {
  Supervisor sup(fast_policy(/*max_restarts=*/2));
  std::atomic<int> runs{0};
  std::atomic<bool> fallback_ran{false};
  std::atomic<bool> exited{false};
  sup.add_stage(
      "doomed", [&] { runs.fetch_add(1); throw std::runtime_error("always"); },
      [&] { fallback_ran.store(true); }, [&] { exited.store(true); });
  sup.start();
  sup.join();
  EXPECT_EQ(runs.load(), 3) << "first run + max_restarts retries";
  EXPECT_EQ(sup.restarts(0), 2u);
  EXPECT_TRUE(sup.gave_up(0));
  EXPECT_EQ(sup.stages_gave_up(), 1u);
  EXPECT_TRUE(fallback_ran.load());
  EXPECT_TRUE(exited.load());
}

TEST(Supervisor, FallbackCrashIsContainedAndOnExitStillRuns) {
  Supervisor sup(fast_policy(/*max_restarts=*/0));
  std::atomic<bool> exited{false};
  sup.add_stage(
      "hopeless", [] { throw std::runtime_error("body"); },
      [] { throw std::runtime_error("fallback too"); }, [&] { exited.store(true); });
  sup.start();
  sup.join();  // must not terminate the process
  EXPECT_TRUE(sup.gave_up(0));
  EXPECT_TRUE(exited.load());
}

TEST(Supervisor, StopInterruptsBackoffSleepQuickly) {
  BackoffPolicy policy;
  policy.initial_ms = 60'000.0;  // would hang the test if the sleep were real
  policy.max_ms = 60'000.0;
  policy.max_restarts = 5;
  Supervisor sup(policy);
  std::atomic<bool> crashed{false};
  sup.add_stage("sleeper", [&] {
    crashed.store(true);
    throw std::runtime_error("crash into a huge backoff");
  });
  sup.start();
  while (!crashed.load()) std::this_thread::yield();
  const auto start = std::chrono::steady_clock::now();
  sup.stop_and_join();
  const auto took = std::chrono::steady_clock::now() - start;
  EXPECT_LT(took, std::chrono::seconds(10)) << "stop must cut the backoff sleep short";
}

TEST(Supervisor, RunsStagesConcurrently) {
  // A two-stage ping-pong can only finish if both stages are live at once.
  Supervisor sup(fast_policy());
  std::atomic<int> turn{0};
  sup.add_stage("ping", [&] {
    for (int i = 0; i < 50; ++i) {
      while (turn.load() != 0) std::this_thread::yield();
      turn.store(1);
    }
  });
  sup.add_stage("pong", [&] {
    for (int i = 0; i < 50; ++i) {
      while (turn.load() != 1) std::this_thread::yield();
      turn.store(0);
    }
  });
  sup.start();
  sup.join();
  EXPECT_EQ(sup.total_restarts(), 0u);
}

TEST(Supervisor, ScorecardNamesStages) {
  Supervisor sup(fast_policy());
  sup.add_stage("alpha", [] {});
  sup.add_stage("beta", [] {});
  ASSERT_EQ(sup.stage_count(), 2u);
  EXPECT_EQ(sup.stage_name(0), "alpha");
  EXPECT_EQ(sup.stage_name(1), "beta");
  sup.start();
  sup.join();
}

}  // namespace
}  // namespace safecross::runtime
