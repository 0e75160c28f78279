#pragma once
// On-disk persistence for a SafeCross deployment: one checkpoint file per
// weather model (parameters + BatchNorm running statistics), so a
// roadside unit can reboot without retraining and new intersections can
// start from a shipped model set.
//
// Layout: <dir>/<weather>.safecross, each file = params block + buffers
// block in the nn checkpoint format. All weather models share the
// deployment's SlowFast architecture, so the SafeCrossConfig provided at
// load time reconstructs the graphs.

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/safecross.h"
#include "runtime/supervisor.h"

namespace safecross::core {

class ModelStore {
 public:
  /// Trailing integrity footer appended after the nn blocks on save():
  /// [u32 kFooterMagic][u32 crc32 of every preceding byte]. Validation
  /// verifies the CRC before any tensor data is parsed, so a mid-file
  /// bit flip (which keeps the leading magic intact) is caught instead of
  /// silently deserializing garbage weights. A file without the footer
  /// is rejected.
  static constexpr std::uint32_t kFooterMagic = 0x5AFEF007u;

  explicit ModelStore(std::filesystem::path directory);

  /// Persist every model the framework currently holds. Creates the
  /// directory if needed; overwrites existing checkpoints.
  void save(SafeCross& safecross) const;

  /// One checkpoint that failed validation or deserialization, even after
  /// the transient-read retries: `attempts` records how many times it was
  /// tried before being declared bad.
  struct LoadError {
    dataset::Weather weather;
    std::string message;
    int attempts = 1;
  };

  /// Full outcome of a load: which weathers are now serving and which
  /// checkpoints were skipped, with reasons.
  struct LoadReport {
    std::vector<dataset::Weather> loaded;
    std::vector<LoadError> errors;
    bool all_ok() const { return errors.empty(); }
  };

  /// Load every checkpoint present in the directory into a fresh
  /// framework built from `config`. A bad file — zero-byte, truncated,
  /// corrupted magic, or architecture mismatch — is skipped with a
  /// structured error (and a warning log) instead of aborting the whole
  /// load: a rebooting roadside unit must come up with every healthy
  /// model it has rather than none.
  LoadReport load_report(SafeCross& safecross, const SafeCrossConfig& config) const;

  /// Convenience wrapper over load_report(): returns the loaded weathers,
  /// silently skipping bad checkpoints.
  std::vector<dataset::Weather> load(SafeCross& safecross,
                                     const SafeCrossConfig& config) const;

  /// Weathers with a checkpoint on disk.
  std::vector<dataset::Weather> available() const;

  /// Cache warm-up order: available checkpoints sorted by on-disk size
  /// descending, so the costliest cold loads are resident before traffic
  /// arrives. `max_models` > 0 truncates to the cache capacity; 0 keeps
  /// every available checkpoint. Equal sizes keep the stable
  /// kAllWeathers enumeration order, so the manifest is deterministic.
  std::vector<dataset::Weather> warm_manifest(std::size_t max_models = 0) const;

  std::filesystem::path path_for(dataset::Weather weather) const;

  /// Retry policy for transient read failures during load: a checkpoint
  /// that fails to stat/open/deserialize is re-attempted with bounded
  /// exponential backoff (shared runtime::retry_with_backoff machinery)
  /// before being declared bad — an NFS blip or a concurrent writer must
  /// not cost a rebooting unit one of its weather models. The default is
  /// deliberately tight (a few short retries) so a genuinely corrupt file
  /// still fails fast.
  void set_retry_policy(runtime::BackoffPolicy policy) { retry_policy_ = policy; }
  const runtime::BackoffPolicy& retry_policy() const { return retry_policy_; }

 private:
  std::filesystem::path dir_;
  runtime::BackoffPolicy retry_policy_{/*initial_ms=*/2.0, /*multiplier=*/2.0,
                                       /*max_ms=*/50.0, /*jitter_frac=*/0.2,
                                       /*max_restarts=*/2};
};

}  // namespace safecross::core
