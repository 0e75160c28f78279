// MicroBatcher properties, driven by seeded arrival and dispatch schedules
// (the batcher takes no clock, so every property is deterministic):
//   * a batch never mixes weathers or switch epochs and never exceeds
//     max_batch;
//   * conservation — every staged window lands in exactly one batch;
//   * FIFO within a weather group;
//   * no starvation — after `while (next())` no servable window remains
//     staged, whatever the servability predicate says at that moment;
//   * unservable groups are held back, and flush() ignores servability.

#include "serving/micro_batcher.h"

#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace safecross::serving {
namespace {

ReadyWindow make_window(std::size_t id, Weather weather, std::uint32_t epoch = 0) {
  ReadyWindow w;
  w.seq = id;  // unique id for conservation tracking
  w.model_weather = weather;
  w.epoch = epoch;
  return w;
}

constexpr Weather kWeathers[] = {Weather::Daytime, Weather::Rain, Weather::Snow,
                                 Weather::Night, Weather::Fog};

/// Random arrivals with a dispatch round (`while (next())`) now and then,
/// as a decider that is busy between rounds would run them; returns every
/// batch fired (including the end-of-run flush).
std::vector<Batch> drive(MicroBatcher& batcher, Rng& rng, std::size_t windows) {
  std::vector<Batch> fired;
  for (std::size_t id = 0; id < windows; ++id) {
    batcher.stage(make_window(id, kWeathers[rng.uniform_int(std::uint64_t{5})]));
    if (rng.bernoulli(0.3)) {
      while (auto batch = batcher.next()) fired.push_back(std::move(*batch));
    }
  }
  while (auto batch = batcher.flush()) fired.push_back(std::move(*batch));
  return fired;
}

TEST(MicroBatcherProperty, BatchesNeverMixWeathersOrExceedMaxBatch) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    BatcherConfig cfg;
    cfg.max_batch = 1 + rng.uniform_int(std::uint64_t{8});
    MicroBatcher batcher(cfg);
    for (const Batch& b : drive(batcher, rng, 200)) {
      ASSERT_FALSE(b.items.empty());
      ASSERT_LE(b.items.size(), cfg.max_batch) << "seed " << seed;
      for (const ReadyWindow& w : b.items) {
        ASSERT_EQ(w.model_weather, b.weather)
            << "seed " << seed << ": a batch straddled a model switch";
      }
    }
  }
}

TEST(MicroBatcherProperty, EveryStagedWindowFiresExactlyOnce) {
  for (std::uint64_t seed = 21; seed <= 40; ++seed) {
    Rng rng(seed);
    BatcherConfig cfg;
    cfg.max_batch = 1 + rng.uniform_int(std::uint64_t{6});
    MicroBatcher batcher(cfg);
    constexpr std::size_t kWindows = 150;
    const auto fired = drive(batcher, rng, kWindows);
    EXPECT_TRUE(batcher.empty());
    std::set<std::size_t> seen;
    for (const Batch& b : fired) {
      for (const ReadyWindow& w : b.items) {
        EXPECT_TRUE(seen.insert(w.seq).second)
            << "seed " << seed << ": window " << w.seq << " fired twice";
      }
    }
    EXPECT_EQ(seen.size(), kWindows) << "seed " << seed << ": windows lost";
  }
}

TEST(MicroBatcherProperty, FifoWithinEachWeatherGroup) {
  for (std::uint64_t seed = 41; seed <= 50; ++seed) {
    Rng rng(seed);
    BatcherConfig cfg;
    cfg.max_batch = 1 + rng.uniform_int(std::uint64_t{5});
    MicroBatcher batcher(cfg);
    std::map<Weather, std::size_t> last_id;
    for (const Batch& b : drive(batcher, rng, 120)) {
      for (const ReadyWindow& w : b.items) {
        auto it = last_id.find(w.model_weather);
        if (it != last_id.end()) {
          EXPECT_GT(w.seq, it->second) << "seed " << seed << ": group reordered";
        }
        last_id[w.model_weather] = w.seq;
      }
    }
  }
}

// No starvation, restated for work-conserving dispatch: a dispatch round
// leaves no servable window staged, while the servability predicate
// flips underneath (models loading and landing); held-back windows are
// kept, and fire in the first round after their weather turns servable.
TEST(MicroBatcherProperty, NoServableWindowRemainsAfterDispatch) {
  for (std::uint64_t seed = 51; seed <= 65; ++seed) {
    Rng rng(seed);
    BatcherConfig cfg;
    cfg.max_batch = 1 + rng.uniform_int(std::uint64_t{6});
    MicroBatcher batcher(cfg);
    std::set<Weather> loading;
    batcher.set_servable([&](Weather w) { return loading.count(w) == 0; });
    constexpr std::size_t kWindows = 200;
    std::size_t fired = 0;
    std::uint32_t epoch = 0;
    for (std::size_t id = 0; id < kWindows; ++id) {
      if (rng.bernoulli(0.1)) ++epoch;
      const Weather w = kWeathers[rng.uniform_int(std::uint64_t{5})];
      batcher.stage(make_window(id, w, epoch));
      if (rng.bernoulli(0.2)) {
        const Weather flip = kWeathers[rng.uniform_int(std::uint64_t{5})];
        if (!loading.erase(flip)) loading.insert(flip);
      }
      if (rng.bernoulli(0.4)) {
        while (auto batch = batcher.next()) {
          EXPECT_EQ(loading.count(batch->weather), 0u)
              << "seed " << seed << ": an unservable group fired";
          fired += batch->items.size();
        }
        for (Weather weather : kWeathers) {
          if (loading.count(weather) != 0) continue;
          EXPECT_EQ(batcher.staged_for(weather), 0u)
              << "seed " << seed << ": a servable window was left staged after dispatch";
        }
      }
    }
    loading.clear();
    while (auto batch = batcher.next()) fired += batch->items.size();
    EXPECT_TRUE(batcher.empty()) << "seed " << seed << ": held-back windows never fired";
    EXPECT_EQ(fired, kWindows) << "seed " << seed;
  }
}

// A full group fires at once, the fullest group first and capped at
// max_batch; partial groups fire too, ties broken by key order.
TEST(MicroBatcherProperty, FullGroupFiresImmediately) {
  BatcherConfig cfg;
  cfg.max_batch = 3;
  MicroBatcher batcher(cfg);
  batcher.stage(make_window(0, Weather::Fog));
  batcher.stage(make_window(1, Weather::Rain));
  batcher.stage(make_window(2, Weather::Fog));
  batcher.stage(make_window(3, Weather::Rain));
  batcher.stage(make_window(4, Weather::Fog));
  batcher.stage(make_window(5, Weather::Fog));
  batcher.stage(make_window(6, Weather::Fog));

  auto first = batcher.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->weather, Weather::Fog) << "the fullest group fires first";
  ASSERT_EQ(first->items.size(), 3u) << "capped at max_batch";
  EXPECT_EQ(first->items[0].seq, 0u);
  EXPECT_EQ(first->items[2].seq, 4u);

  auto second = batcher.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->weather, Weather::Rain) << "two-two tie: key order (Rain < Fog)";
  EXPECT_EQ(second->items.size(), 2u);
  auto third = batcher.next();
  ASSERT_TRUE(third.has_value());
  EXPECT_EQ(third->weather, Weather::Fog);
  EXPECT_EQ(third->items.size(), 2u);
  EXPECT_FALSE(batcher.next().has_value());
  EXPECT_TRUE(batcher.empty());
}

// Batches never straddle a switch epoch, even A→B→A: same-weather
// windows from different epochs must not co-batch (they may be judged
// under different cache residencies).
TEST(MicroBatcherProperty, BatchesNeverMixSwitchEpochs) {
  for (std::uint64_t seed = 76; seed <= 90; ++seed) {
    Rng rng(seed);
    BatcherConfig cfg;
    cfg.max_batch = 1 + rng.uniform_int(std::uint64_t{6});
    MicroBatcher batcher(cfg);
    std::vector<Batch> fired;
    std::uint32_t epoch = 0;
    for (std::size_t id = 0; id < 150; ++id) {
      if (rng.bernoulli(0.15)) ++epoch;  // a switch storm in miniature
      const Weather w = kWeathers[rng.uniform_int(std::uint64_t{3})];
      batcher.stage(make_window(id, w, epoch));
      if (rng.bernoulli(0.3)) {
        while (auto batch = batcher.next()) fired.push_back(std::move(*batch));
      }
    }
    while (auto batch = batcher.flush()) fired.push_back(std::move(*batch));
    std::size_t total = 0;
    for (const Batch& b : fired) {
      total += b.items.size();
      for (const ReadyWindow& w : b.items) {
        ASSERT_EQ(w.model_weather, b.weather) << "seed " << seed;
        ASSERT_EQ(w.epoch, b.epoch)
            << "seed " << seed << ": a batch straddled a switch epoch";
      }
    }
    EXPECT_EQ(total, 150u) << "seed " << seed;
  }
}

// The servability gate: next() holds back groups whose weather the
// predicate rejects (their model is still loading) without starving the
// servable ones; flush() ignores the gate (conservation at end-of-run).
TEST(MicroBatcherProperty, UnservableGroupsAreHeldBackNotDropped) {
  BatcherConfig cfg;
  cfg.max_batch = 4;
  MicroBatcher batcher(cfg);
  bool rain_resident = false;
  batcher.set_servable([&](Weather w) { return w != Weather::Rain || rain_resident; });

  batcher.stage(make_window(0, Weather::Rain));
  batcher.stage(make_window(1, Weather::Rain));
  batcher.stage(make_window(2, Weather::Daytime));
  EXPECT_EQ(batcher.staged_for(Weather::Rain), 2u);

  // Only the servable group fires, although the held one is fuller.
  auto first = batcher.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->weather, Weather::Daytime);
  EXPECT_FALSE(batcher.next().has_value())
      << "an unservable group fired while its model was still loading";
  EXPECT_FALSE(batcher.empty()) << "held back, not dropped";

  // The load commits: the held group fires whole, in staging order.
  rain_resident = true;
  auto second = batcher.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->weather, Weather::Rain);
  ASSERT_EQ(second->items.size(), 2u);
  EXPECT_EQ(second->items[0].seq, 0u);
  EXPECT_TRUE(batcher.empty());

  // flush() drains even unservable groups — end-of-run conservation.
  rain_resident = false;
  batcher.stage(make_window(3, Weather::Rain));
  EXPECT_FALSE(batcher.next().has_value());
  auto flushed = batcher.flush();
  ASSERT_TRUE(flushed.has_value());
  EXPECT_EQ(flushed->weather, Weather::Rain);
  EXPECT_TRUE(batcher.empty());
}

}  // namespace
}  // namespace safecross::serving
