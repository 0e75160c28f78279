#include "switching/switcher.h"

#include <stdexcept>

namespace safecross::switching {

const char* policy_name(SwitchPolicy p) {
  switch (p) {
    case SwitchPolicy::StopAndStart: return "stop-and-start";
    case SwitchPolicy::PipeSwitch: return "pipeswitch";
  }
  return "?";
}

ModelSwitcher::ModelSwitcher(GpuModelConfig gpu, SwitchPolicy policy)
    : gpu_(gpu), policy_(policy) {}

std::size_t ModelSwitcher::required_pool_capacity() const {
  // The two largest registered models (active + incoming) plus ~10%
  // working headroom — PipeSwitch allocates once, up front.
  std::size_t first = 0, second = 0;
  for (const auto& [name, entry] : entries_) {
    const std::size_t bytes = entry.profile.total_bytes();
    if (bytes >= first) {
      second = first;
      first = bytes;
    } else {
      second = std::max(second, bytes);
    }
  }
  return (first + second) + (first + second) / 10 + 1;
}

void ModelSwitcher::register_model(const std::string& scene, ModelProfile profile) {
  Entry entry{std::move(profile), {}};
  if (policy_ == SwitchPolicy::PipeSwitch) {
    entry.grouping = optimal_grouping(entry.profile, gpu_);
  }
  entries_.insert_or_assign(scene, std::move(entry));
  // A model registered after deployment may not fit the existing pool:
  // re-provision (the real system would restart the worker with a larger
  // reservation) and re-pin the active model.
  if (pool_ != nullptr && required_pool_capacity() > pool_->capacity()) {
    pool_ = std::make_unique<GpuMemoryPool>(required_pool_capacity());
    if (!active_.empty()) {
      pool_->allocate(active_, entries_.at(active_).profile.total_bytes());
    }
  }
}

void ModelSwitcher::ensure_pool() {
  if (pool_ != nullptr) return;
  pool_ = std::make_unique<GpuMemoryPool>(required_pool_capacity());
}

void ModelSwitcher::place_in_pool(const std::string& scene, std::size_t bytes) {
  if (pool_->holds(scene)) return;
  if (!pool_->allocate(scene, bytes)) {
    // Evict every model that is neither active nor incoming, then retry.
    std::vector<std::string> evict;
    for (const auto& [name, entry] : entries_) {
      if (name != active_ && name != scene && pool_->holds(name)) evict.push_back(name);
    }
    for (const std::string& name : evict) pool_->release(name);
    if (!pool_->allocate(scene, bytes)) {
      throw std::runtime_error("ModelSwitcher: model '" + scene +
                               "' does not fit the GPU memory pool");
    }
  }
}

double ModelSwitcher::switch_to(const std::string& scene) {
  const auto it = entries_.find(scene);
  if (it == entries_.end()) {
    throw std::invalid_argument("ModelSwitcher: unregistered scene '" + scene + "'");
  }
  if (scene == active_) return 0.0;
  ensure_pool();
  place_in_pool(scene, it->second.profile.total_bytes());

  SwitchResult result;
  if (policy_ == SwitchPolicy::PipeSwitch) {
    result = simulate_pipeswitch(it->second.profile, it->second.grouping, gpu_);
  } else {
    result = simulate_stop_and_start(it->second.profile, gpu_);
  }
  // The outgoing model's region is recycled once the new one serves.
  if (!active_.empty() && pool_->holds(active_)) pool_->release(active_);
  active_ = scene;
  last_ = result;
  ++switch_count_;
  total_delay_ms_ += result.switching_delay_ms();
  return result.switching_delay_ms();
}

}  // namespace safecross::switching
