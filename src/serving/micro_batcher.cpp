#include "serving/micro_batcher.h"

#include <algorithm>

namespace safecross::serving {

void MicroBatcher::stage(ReadyWindow w) {
  const GroupKey key{w.model_weather, w.epoch};
  groups_[key].push_back(std::move(w));
  ++staged_;
}

Batch MicroBatcher::fire(Groups::iterator it) {
  std::deque<ReadyWindow>& group = it->second;
  const std::size_t count = std::min(group.size(), config_.max_batch);
  Batch batch;
  batch.weather = it->first.first;
  batch.epoch = it->first.second;
  batch.items.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    batch.items.push_back(std::move(group.front()));
    group.pop_front();
  }
  staged_ -= count;
  if (group.empty()) groups_.erase(it);
  return batch;
}

std::optional<Batch> MicroBatcher::next() {
  // The largest backlog wins, ties broken by key order so the firing
  // sequence is deterministic for a deterministic arrival order. Groups
  // whose weather is mid-load are held back and fire as soon as the model
  // lands.
  auto fullest = groups_.end();
  for (auto it = groups_.begin(); it != groups_.end(); ++it) {
    if (!servable(it->first.first)) continue;
    if (fullest == groups_.end() || it->second.size() > fullest->second.size()) fullest = it;
  }
  if (fullest == groups_.end()) return std::nullopt;
  return fire(fullest);
}

std::optional<Batch> MicroBatcher::flush() {
  // Conservation beats servability at shutdown: every staged window must
  // leave in some batch even if its model never finished loading (the
  // server resolves residency synchronously before deciding it).
  if (groups_.empty()) return std::nullopt;
  return fire(groups_.begin());
}

std::size_t MicroBatcher::staged_for(Weather weather) const {
  std::size_t n = 0;
  for (const auto& [key, group] : groups_) {
    if (key.first == weather) n += group.size();
  }
  return n;
}

}  // namespace safecross::serving
