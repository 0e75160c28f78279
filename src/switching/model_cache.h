#pragma once
// Warm per-weather model cache for the serving path (DESIGN.md §14).
//
// The discrete-event ModelSwitcher answers "how long would this switch
// take"; the ModelCache actually holds models resident. Each registered
// scene owns a region in a GpuMemoryPool sized for `capacity_models`
// simultaneous residents (dual residency by default: the outgoing model
// keeps serving while the incoming one loads). Loads are split into the
// three phases the journaled switch protocol needs:
//
//   prepare(scene)   reserve pool space, evicting LRU residents the
//                    caller's filter allows (owner thread only);
//   transfer(scene)  run the weight movement through PipelinedExecutor —
//                    safe to call off the owner thread, which is how the
//                    server keeps deciding on the old model meanwhile;
//   commit(scene)    mark the scene resident and MRU (owner thread only).
//
// Exactly one load may be in flight at a time. `bytes_scale` shrinks
// every registered profile's weights uniformly so tests get sub-ms loads
// and tiny staging buffers while the bench runs the full-size model.

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "switching/executor.h"
#include "switching/memory_pool.h"
#include "switching/profile.h"

namespace safecross::switching {

struct ModelCacheConfig {
  std::size_t capacity_models = 2;  // simultaneous residents the pool holds
  double bytes_scale = 1.0;         // scales layer param_bytes at registration
  ExecutorConfig executor;
};

struct ModelCacheStats {
  std::size_t loads = 0;      // committed loads
  std::size_t evictions = 0;  // residents released to make room
  double load_wall_ms = 0.0;  // summed committed load wall time
};

class ModelCache {
 public:
  /// may_evict(scene) gates which residents LRU eviction may claim.
  using EvictFilter = std::function<bool(const std::string&)>;
  /// on_evict(scene) fires AFTER the victim's region is released — the
  /// mid-cache-eviction chaos instant.
  using EvictHook = std::function<void(const std::string&)>;

  explicit ModelCache(ModelCacheConfig config = {});

  /// Register (or replace) a scene's model. An empty grouping means the
  /// scene loads as one whole-model group (stop-and-start shape).
  void register_model(const std::string& scene, ModelProfile profile,
                      std::vector<int> grouping);

  bool registered(const std::string& scene) const { return entries_.count(scene) > 0; }
  bool resident(const std::string& scene) const;
  std::size_t resident_count() const { return lru_.size(); }

  /// Mark a resident scene most-recently-used (each served batch does).
  void touch(const std::string& scene);

  /// Would prepare(scene) succeed without touching anything? False for
  /// unregistered scenes; byte arithmetic over free + evictable space.
  bool can_prepare(const std::string& scene, const EvictFilter& may_evict = {}) const;

  /// Reserve pool space for the scene, evicting allowed LRU residents as
  /// needed. No-op when already resident. Throws std::logic_error if a
  /// different load is already prepared, std::runtime_error when the scene
  /// cannot fit even after every allowed eviction.
  void prepare(const std::string& scene, const EvictFilter& may_evict = {},
               const EvictHook& on_evict = {});

  /// Run the prepared scene's weight movement. Pipelined when requested
  /// and the scene has a grouping; sequential otherwise. The only cache
  /// method safe to call off the owner thread.
  ExecutorResult transfer(const std::string& scene, bool pipelined,
                          const GroupHook& on_group = {});

  /// Mark the prepared scene resident + MRU and account the load.
  void commit(const std::string& scene, double wall_ms);

  /// Roll back prepare() after a failed transfer: release the reserved
  /// region, clear the in-flight slot. No-op when nothing is prepared.
  void abort_prepare();

  /// prepare + transfer + commit on the calling thread (recovery warm-up
  /// and the stop-and-start arm, where the stall IS the measurement).
  ExecutorResult load_blocking(const std::string& scene, bool pipelined,
                               const EvictFilter& may_evict = {},
                               const EvictHook& on_evict = {},
                               const GroupHook& on_group = {});

  const ModelCacheStats& stats() const { return stats_; }

 private:
  struct Entry {
    ModelProfile profile;        // bytes_scale already applied
    std::vector<int> grouping;   // empty => whole-model single group
    std::size_t bytes = 0;       // profile.total_bytes() cached
  };

  void ensure_pool();
  std::size_t required_pool_capacity() const;
  void release_resident(const std::string& scene);

  ModelCacheConfig config_;
  std::map<std::string, Entry> entries_;
  std::unique_ptr<GpuMemoryPool> pool_;
  PipelinedExecutor executor_;
  std::vector<std::string> lru_;  // residents, front = LRU
  std::optional<std::string> prepared_;
  ModelCacheStats stats_;
};

}  // namespace safecross::switching
