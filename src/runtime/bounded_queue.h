#pragma once
// Bounded MPMC queue carrying ready windows from StreamServer's
// per-stream producers to its deciding thread.
//
// The live warning path must never let one wedged thread grow an
// unbounded backlog (memory) or stall the whole service (latency). Every
// producer→decider hand-off therefore goes through a BoundedQueue with
// three pressure-relief behaviours, all observable through counters:
//
//   * backpressure — push(item, timeout) blocks while the queue is full,
//     so a briefly slow consumer throttles its producer instead of losing
//     work;
//   * load shedding — push_drop_oldest(item) never blocks: when the queue
//     is full the *oldest* queued item is evicted (the newest data is the
//     most valuable in a real-time feed) and the shed counter ticks;
//   * poisoning — close() wakes every blocked producer and consumer.
//     Producers fail fast after close; consumers drain the remaining
//     items and then see drained() == true, their signal to exit.
//
// Thread-safe for any number of producers and consumers. Counters are
// read under the same mutex, so they are exact whenever the queue is
// quiescent (e.g. after the producer threads have been joined).

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace safecross::runtime {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  std::size_t capacity() const { return capacity_; }

  /// Blocking push with backpressure: waits up to `timeout` for space.
  /// Returns false (item discarded) on timeout or when the queue is
  /// closed — a producer that sees false under load should either retry
  /// or shed via push_drop_oldest().
  bool push(T item, std::chrono::milliseconds timeout) { return push_ref(item, timeout); }

  /// As push(), but on failure `item` is left intact in the caller's
  /// variable instead of being consumed — so an expensive-to-rebuild item
  /// can be handed to push_drop_oldest() without a defensive copy.
  bool push_ref(T& item, std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_space_.wait_for(lock, timeout,
                            [this] { return closed_ || items_.size() < capacity_; })) {
      return false;
    }
    if (closed_) return false;
    items_.push_back(std::move(item));
    ++pushed_;
    if (items_.size() > high_water_) high_water_ = items_.size();
    lock.unlock();
    cv_item_.notify_one();
    return true;
  }

  /// Non-blocking push; false when full or closed. Unlike
  /// push(item, 0ms) this never touches the space condition variable's
  /// wait path, so a caller that must not stall — the fleet controller
  /// probing a sick shard's channel, a heartbeat publisher on the shard
  /// side — pays one uncontended lock and nothing else. The rejected
  /// item is NOT counted as shed: the caller kept it and decides what
  /// the refusal means (retry, drop-oldest, give up).
  bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
      ++pushed_;
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    cv_item_.notify_one();
    return true;
  }

  /// Load-shedding push: never blocks. When full, evicts the oldest
  /// queued item to make room (newest data wins in a real-time stream).
  /// Returns the number of items shed by this call: 1 when an old item
  /// was evicted or the queue is closed (the new item is discarded and
  /// counted as shed — it was load the pipeline could not carry), else 0.
  std::size_t push_drop_oldest(T item) {
    std::size_t shed = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_) {
        ++shed_;
        return 1;
      }
      if (items_.size() >= capacity_) {
        items_.pop_front();
        ++shed_;
        shed = 1;
      }
      items_.push_back(std::move(item));
      ++pushed_;
      if (items_.size() > high_water_) high_water_ = items_.size();
    }
    cv_item_.notify_one();
    return shed;
  }

  /// Blocking pop: waits up to `timeout` for an item. Returns nullopt on
  /// timeout, or when the queue is closed and fully drained. A consumer
  /// loop distinguishes the two via drained().
  std::optional<T> pop(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    if (!cv_item_.wait_for(lock, timeout, [this] { return closed_ || !items_.empty(); })) {
      return std::nullopt;
    }
    if (items_.empty()) return std::nullopt;  // closed and drained
    T item = std::move(items_.front());
    items_.pop_front();
    ++popped_;
    lock.unlock();
    cv_space_.notify_one();
    return item;
  }

  /// Poison the queue: producers fail from now on, blocked callers wake,
  /// consumers drain what is already queued and then stop.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    cv_item_.notify_all();
    cv_space_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Closed and empty: the consumer's signal that no item will ever come.
  bool drained() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_ && items_.empty();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }

  // --- counters (scorecard) ---
  std::size_t pushed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pushed_;
  }
  std::size_t popped() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return popped_;
  }
  /// Items lost to load shedding (evicted or refused while closed).
  std::size_t shed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return shed_;
  }
  /// Largest queue depth ever observed — how close the stage came to
  /// shedding; useful for sizing capacities.
  std::size_t high_water() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return high_water_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable cv_item_;
  std::condition_variable cv_space_;
  std::deque<T> items_;
  bool closed_ = false;
  std::size_t pushed_ = 0;
  std::size_t popped_ = 0;
  std::size_t shed_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace safecross::runtime
