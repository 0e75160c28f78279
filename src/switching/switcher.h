#pragma once
// The MS module's front door: a registry of per-scene models and a
// switch operation that accounts latency with the chosen policy.
//
// core::paper_switcher registers one model profile per weather the
// engine holds. When the scene changes, switch_to() simulates the swap
// (PipeSwitch with the optimal grouping, or Stop-and-Start for the
// ablation) and returns the delay: how long warnings were unavailable
// during the swap (paper Table VI). The serving path does not use it.

#include <map>
#include <memory>
#include <optional>
#include <string>

#include "switching/gpu_model.h"
#include "switching/grouping.h"
#include "switching/memory_pool.h"

namespace safecross::switching {

enum class SwitchPolicy { StopAndStart, PipeSwitch };

const char* policy_name(SwitchPolicy p);

class ModelSwitcher {
 public:
  explicit ModelSwitcher(GpuModelConfig gpu = {}, SwitchPolicy policy = SwitchPolicy::PipeSwitch);

  /// Register (or replace) a scene's model. Grouping for PipeSwitch is
  /// computed once here.
  void register_model(const std::string& scene, ModelProfile profile);

  bool has_model(const std::string& scene) const { return entries_.count(scene) > 0; }
  const std::string& active_scene() const { return active_; }

  /// Switch to the scene's model; returns the switching delay in ms
  /// (0 when the scene is already active). Throws std::invalid_argument
  /// if unregistered and std::runtime_error when the model cannot fit the
  /// pool; the active model is unchanged on either failure.
  double switch_to(const std::string& scene);

  /// Full result (timeline included) of the last non-trivial switch.
  const std::optional<SwitchResult>& last_switch() const { return last_; }

  std::size_t switch_count() const { return switch_count_; }
  double total_delay_ms() const { return total_delay_ms_; }

  /// The unified GPU memory pool (PipeSwitch's pre-allocated worker
  /// memory). Created on the first switch, sized to hold the two largest
  /// registered models simultaneously (incoming transfers while the
  /// outgoing still serves). Null before the first switch.
  const GpuMemoryPool* memory_pool() const { return pool_.get(); }

 private:
  void ensure_pool();
  void place_in_pool(const std::string& scene, std::size_t bytes);
  std::size_t required_pool_capacity() const;
  struct Entry {
    ModelProfile profile;
    std::vector<int> grouping;
  };

  GpuModelConfig gpu_;
  SwitchPolicy policy_;
  std::map<std::string, Entry> entries_;
  std::unique_ptr<GpuMemoryPool> pool_;
  std::string active_;
  std::optional<SwitchResult> last_;
  std::size_t switch_count_ = 0;
  double total_delay_ms_ = 0.0;
};

}  // namespace safecross::switching
