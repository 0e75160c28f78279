#pragma once
// Weather-grouped micro-batcher for the stream server.
//
// Ready windows from K streams are staged into per-(weather, switch-epoch)
// groups. next() fires the fullest servable group, capped at max_batch
// items. The server calls it until it returns nullopt after every drain
// pass of its queues, so dispatch is work-conserving: a staged window
// never waits for a batch to fill while the decider is free, and batches
// fill by themselves when windows pile up behind a busy decider.
//
// Invariants, pinned by the property suite:
//   * a batch never mixes weathers OR switch epochs — the engine runs one
//     model per forward pass, so a batch must never straddle a model
//     switch, even an A→B→A flip back to the same weather;
//   * a batch never exceeds max_batch items;
//   * no starvation — once `while (next())` returns, no servable window
//     is staged; flush() drains the rest;
//   * conservation — every staged window appears in exactly one batch.
//
// Servability: the server may install a predicate marking a weather
// temporarily unservable (its model is still loading in the warm cache).
// next() holds those groups back — the whole point of pipelined switching
// is that other weathers keep batching meanwhile — but flush() ignores
// the predicate so conservation survives shutdown.
//
// The batcher is deliberately threadless and takes no clock. The server's
// batcher thread is the only concurrent user and calls it from one
// thread; no locking is needed here.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "serving/stream.h"

namespace safecross::serving {

struct BatcherConfig {
  std::size_t max_batch = 8;  // items per forward pass at most
};

/// One weather-uniform batch ready for a single (N,1,T,H,W) forward pass.
struct Batch {
  Weather weather = Weather::Daytime;
  std::uint32_t epoch = 0;  // switch epoch shared by every item
  std::vector<ReadyWindow> items;  // staging order
};

class MicroBatcher {
 public:
  using ServablePredicate = std::function<bool(Weather)>;

  explicit MicroBatcher(BatcherConfig config) : config_(config) {
    if (config_.max_batch == 0) config_.max_batch = 1;
  }

  const BatcherConfig& config() const { return config_; }

  /// Stage one model-gated window into its (weather, epoch) group.
  void stage(ReadyWindow w);

  /// The fullest servable group as one batch of at most max_batch items
  /// (ties broken by key order — deterministic); nullopt when no servable
  /// window is staged.
  std::optional<Batch> next();

  /// Drain one remaining group regardless of servability (end of run).
  std::optional<Batch> flush();

  bool empty() const { return staged_ == 0; }
  std::size_t staged() const { return staged_; }

  /// Staged windows whose model weather is `weather`, across all epochs.
  /// The server's eviction filter protects weathers with a backlog.
  std::size_t staged_for(Weather weather) const;

  /// Install (or clear, with {}) the weather-servability predicate.
  void set_servable(ServablePredicate servable) { servable_ = std::move(servable); }

 private:
  // Key order = weather enum order, then epoch — deterministic tie-break.
  using GroupKey = std::pair<Weather, std::uint32_t>;
  using Groups = std::map<GroupKey, std::deque<ReadyWindow>>;

  /// Pop up to max_batch items off the front of `it`'s group as one batch.
  Batch fire(Groups::iterator it);
  bool servable(Weather weather) const { return !servable_ || servable_(weather); }

  BatcherConfig config_;
  Groups groups_;
  ServablePredicate servable_;
  std::size_t staged_ = 0;
};

}  // namespace safecross::serving
