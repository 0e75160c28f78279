// BoundedQueue: the producer-to-decider hand-off primitive. The
// contract under test: FIFO order, backpressure with timeout, oldest-first
// load shedding with exact shed accounting, and close() as poisoning —
// producers fail fast, consumers drain and then stop.

#include "runtime/bounded_queue.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace safecross::runtime {
namespace {

using std::chrono::milliseconds;

constexpr milliseconds kNoWait{0};
constexpr milliseconds kShortWait{5};
constexpr milliseconds kLongWait{2000};  // generous: only hit on test failure

TEST(BoundedQueue, DeliversInFifoOrder) {
  BoundedQueue<int> q(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(i, kNoWait));
  for (int i = 0; i < 4; ++i) {
    const auto item = q.pop(kNoWait);
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  EXPECT_FALSE(q.pop(kNoWait).has_value());
  EXPECT_EQ(q.pushed(), 4u);
  EXPECT_EQ(q.popped(), 4u);
  EXPECT_EQ(q.shed(), 0u);
}

TEST(BoundedQueue, PushTimesOutWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(1, kNoWait));
  EXPECT_TRUE(q.push(2, kNoWait));
  EXPECT_FALSE(q.push(3, kShortWait));  // no consumer: must time out
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pushed(), 2u);
}

TEST(BoundedQueue, PushRefLeavesItemIntactOnTimeout) {
  BoundedQueue<std::vector<int>> q(1);
  std::vector<int> first{1, 2, 3};
  EXPECT_TRUE(q.push_ref(first, kNoWait));
  std::vector<int> second{4, 5, 6};
  EXPECT_FALSE(q.push_ref(second, kNoWait));
  // The failed push must not have consumed the caller's item: it can
  // still be shed (or retried) without rebuilding it.
  EXPECT_EQ(second.size(), 3u);
  EXPECT_EQ(q.push_drop_oldest(std::move(second)), 1u);
  const auto item = q.pop(kNoWait);
  ASSERT_TRUE(item.has_value());
  EXPECT_EQ((*item)[0], 4);
}

TEST(BoundedQueue, BlockedPushCompletesWhenSpaceFrees) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1, kNoWait));
  std::thread consumer([&] {
    std::this_thread::sleep_for(kShortWait);
    EXPECT_EQ(q.pop(kLongWait).value_or(-1), 1);
  });
  // Backpressure: this push blocks until the consumer frees the slot.
  EXPECT_TRUE(q.push(2, kLongWait));
  consumer.join();
  EXPECT_EQ(q.pop(kNoWait).value_or(-1), 2);
}

TEST(BoundedQueue, DropOldestEvictsHeadAndCountsShed) {
  BoundedQueue<int> q(2);
  EXPECT_EQ(q.push_drop_oldest(1), 0u);
  EXPECT_EQ(q.push_drop_oldest(2), 0u);
  EXPECT_EQ(q.push_drop_oldest(3), 1u);  // evicts 1
  EXPECT_EQ(q.push_drop_oldest(4), 1u);  // evicts 2
  EXPECT_EQ(q.shed(), 2u);
  EXPECT_EQ(q.pop(kNoWait).value_or(-1), 3);  // newest data survived
  EXPECT_EQ(q.pop(kNoWait).value_or(-1), 4);
}

TEST(BoundedQueue, TryPushSucceedsWhileSpaceAndDelivers) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_EQ(q.pushed(), 2u);
  EXPECT_EQ(q.high_water(), 2u);
  EXPECT_EQ(q.pop(kNoWait).value_or(-1), 1);
  EXPECT_EQ(q.pop(kNoWait).value_or(-1), 2);
}

TEST(BoundedQueue, TryPushRefusesWhenFullWithoutShedding) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3)) << "full queue must refuse, never block";
  // The refusal is the caller's signal, not data loss: nothing was
  // evicted, nothing counted as shed, the queue is untouched.
  EXPECT_EQ(q.shed(), 0u);
  EXPECT_EQ(q.pushed(), 2u);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(kNoWait).value_or(-1), 1);
  EXPECT_TRUE(q.try_push(3)) << "space freed, the retry must land";
  EXPECT_EQ(q.pop(kNoWait).value_or(-1), 2);
  EXPECT_EQ(q.pop(kNoWait).value_or(-1), 3);
}

TEST(BoundedQueue, TryPushWakesABlockedConsumer) {
  BoundedQueue<int> q(1);
  std::thread producer([&] {
    std::this_thread::sleep_for(kShortWait);
    EXPECT_TRUE(q.try_push(42));
  });
  // The consumer blocks first; try_push's notify must wake it well
  // before the long timeout.
  EXPECT_EQ(q.pop(kLongWait).value_or(-1), 42);
  producer.join();
}

TEST(BoundedQueue, CloseWakesProducersAndConsumersDrain) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(7, kNoWait));
  std::thread closer([&] {
    std::this_thread::sleep_for(kShortWait);
    q.close();
  });
  // Full queue + no consumer: only close() can release this producer.
  EXPECT_FALSE(q.push(8, kLongWait));
  closer.join();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.drained()) << "one item is still queued";
  EXPECT_EQ(q.pop(kNoWait).value_or(-1), 7);  // consumers drain after close
  EXPECT_TRUE(q.drained());
  EXPECT_FALSE(q.pop(kNoWait).has_value());
}

TEST(BoundedQueue, PushAfterCloseFailsAndCountsAsShed) {
  BoundedQueue<int> q(4);
  q.close();
  EXPECT_FALSE(q.push(1, kNoWait));
  EXPECT_FALSE(q.try_push(2));
  EXPECT_EQ(q.push_drop_oldest(3), 1u) << "refused-while-closed counts as shed";
  EXPECT_EQ(q.shed(), 1u);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueue, PopWakesOnCloseInsteadOfFullTimeout) {
  BoundedQueue<int> q(1);
  std::thread closer([&] {
    std::this_thread::sleep_for(kShortWait);
    q.close();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(q.pop(kLongWait).has_value());
  const auto waited = std::chrono::steady_clock::now() - start;
  closer.join();
  EXPECT_LT(waited, kLongWait) << "close() must wake a blocked consumer";
}

TEST(BoundedQueue, HighWaterTracksPeakDepth) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i, kNoWait));
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.pop(kNoWait).has_value());
  EXPECT_TRUE(q.push(9, kNoWait));
  EXPECT_EQ(q.high_water(), 5u);
}

TEST(BoundedQueue, ConcurrentProducersConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  BoundedQueue<int> q(8);
  std::atomic<int> consumed{0};
  std::atomic<long long> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        // Pure backpressure (no shedding): every item must arrive.
        while (!q.push(p * kPerProducer + i, kShortWait)) {
        }
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const auto item = q.pop(kShortWait);
        if (item.has_value()) {
          sum.fetch_add(*item);
          consumed.fetch_add(1);
        } else if (q.drained()) {
          return;
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (std::size_t t = kProducers; t < threads.size(); ++t) threads[t].join();

  const int total = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), total);
  EXPECT_EQ(sum.load(), static_cast<long long>(total) * (total - 1) / 2);
  EXPECT_EQ(q.pushed(), static_cast<std::size_t>(total));
  EXPECT_EQ(q.popped(), static_cast<std::size_t>(total));
  EXPECT_EQ(q.shed(), 0u);
  EXPECT_LE(q.high_water(), q.capacity());
}

}  // namespace
}  // namespace safecross::runtime
