#include "switching/model_cache.h"

#include <algorithm>
#include <stdexcept>

namespace safecross::switching {

ModelCache::ModelCache(ModelCacheConfig config)
    : config_(config), executor_(config.executor) {
  if (config_.capacity_models == 0) config_.capacity_models = 1;
}

void ModelCache::register_model(const std::string& scene, ModelProfile profile,
                                std::vector<int> grouping) {
  if (resident(scene) || prepared_ == scene) {
    throw std::logic_error("model-cache: cannot re-register a live scene: " + scene);
  }
  if (config_.bytes_scale != 1.0) {
    for (LayerDesc& l : profile.layers) {
      const double scaled = static_cast<double>(l.param_bytes) * config_.bytes_scale;
      l.param_bytes = std::max<std::size_t>(1, static_cast<std::size_t>(scaled));
    }
  }
  Entry e;
  e.bytes = profile.total_bytes();
  e.profile = std::move(profile);
  e.grouping = std::move(grouping);
  entries_[scene] = std::move(e);
}

bool ModelCache::resident(const std::string& scene) const {
  return std::find(lru_.begin(), lru_.end(), scene) != lru_.end();
}

void ModelCache::touch(const std::string& scene) {
  auto it = std::find(lru_.begin(), lru_.end(), scene);
  if (it == lru_.end()) return;
  lru_.erase(it);
  lru_.push_back(scene);
}

std::size_t ModelCache::required_pool_capacity() const {
  // Large enough for the `capacity_models` largest registered models at
  // once, plus 10% working slack (same sizing rule as ModelSwitcher).
  std::vector<std::size_t> sizes;
  sizes.reserve(entries_.size());
  for (const auto& [scene, e] : entries_) sizes.push_back(e.bytes);
  std::sort(sizes.rbegin(), sizes.rend());
  std::size_t sum = 0;
  for (std::size_t i = 0; i < sizes.size() && i < config_.capacity_models; ++i) {
    sum += sizes[i];
  }
  return sum + sum / 10 + 1;
}

void ModelCache::ensure_pool() {
  const std::size_t required = required_pool_capacity();
  if (pool_ == nullptr) {
    pool_ = std::make_unique<GpuMemoryPool>(required);
    return;
  }
  if (pool_->capacity() < required) {
    if (pool_->live_count() > 0) {
      throw std::logic_error(
          "model-cache: registrations grew the pool while models are live");
    }
    pool_ = std::make_unique<GpuMemoryPool>(required);
  }
}

bool ModelCache::can_prepare(const std::string& scene,
                             const EvictFilter& may_evict) const {
  auto it = entries_.find(scene);
  if (it == entries_.end()) return false;
  if (resident(scene)) return true;
  if (prepared_.has_value()) return false;  // one load in flight at a time
  const std::size_t needed = it->second.bytes;
  std::size_t reclaimable = pool_ == nullptr ? required_pool_capacity()
                                             : pool_->free_bytes();
  for (const std::string& r : lru_) {
    if (may_evict && !may_evict(r)) continue;
    reclaimable += entries_.at(r).bytes;
  }
  return needed <= reclaimable;
}

void ModelCache::release_resident(const std::string& scene) {
  pool_->release(scene);
  lru_.erase(std::find(lru_.begin(), lru_.end(), scene));
  ++stats_.evictions;
}

void ModelCache::prepare(const std::string& scene, const EvictFilter& may_evict,
                         const EvictHook& on_evict) {
  auto it = entries_.find(scene);
  if (it == entries_.end()) {
    throw std::invalid_argument("model-cache: prepare of unregistered scene: " + scene);
  }
  if (resident(scene)) return;
  if (prepared_.has_value()) {
    throw std::logic_error("model-cache: a load is already prepared: " + *prepared_);
  }
  ensure_pool();
  const std::size_t bytes = it->second.bytes;
  while (!pool_->allocate(scene, bytes)) {
    // Evict the least-recently-used resident the filter allows; the
    // incoming scene is never resident here, so it is never a victim.
    auto victim = lru_.end();
    for (auto cand = lru_.begin(); cand != lru_.end(); ++cand) {
      if (!may_evict || may_evict(*cand)) {
        victim = cand;
        break;
      }
    }
    if (victim == lru_.end()) {
      throw std::runtime_error("model-cache: cannot fit " + scene +
                               " even after all allowed evictions");
    }
    const std::string evicted = *victim;
    release_resident(evicted);
    if (on_evict) on_evict(evicted);  // mid-cache-eviction instant
  }
  prepared_ = scene;
}

ExecutorResult ModelCache::transfer(const std::string& scene, bool pipelined,
                                    const GroupHook& on_group) {
  if (prepared_ != scene) {
    throw std::logic_error("model-cache: transfer of unprepared scene: " + scene);
  }
  const Entry& e = entries_.at(scene);
  if (pipelined && !e.grouping.empty()) {
    return executor_.run_pipelined(e.profile, e.grouping, on_group);
  }
  return executor_.run_sequential(e.profile, on_group);
}

void ModelCache::commit(const std::string& scene, double wall_ms) {
  if (prepared_ != scene) {
    throw std::logic_error("model-cache: commit of unprepared scene: " + scene);
  }
  prepared_.reset();
  lru_.push_back(scene);  // MRU
  ++stats_.loads;
  stats_.load_wall_ms += wall_ms;
}

void ModelCache::abort_prepare() {
  if (!prepared_.has_value()) return;
  pool_->release(*prepared_);
  prepared_.reset();
}

ExecutorResult ModelCache::load_blocking(const std::string& scene, bool pipelined,
                                         const EvictFilter& may_evict,
                                         const EvictHook& on_evict,
                                         const GroupHook& on_group) {
  if (resident(scene)) {
    touch(scene);
    return {};
  }
  prepare(scene, may_evict, on_evict);
  ExecutorResult result;
  try {
    result = transfer(scene, pipelined, on_group);
  } catch (...) {
    abort_prepare();
    throw;
  }
  commit(scene, result.wall_ms);
  return result;
}

}  // namespace safecross::switching
