#pragma once
// Throughput accounting for the paper's §V-D experiment.
//
// In scenes WITH a blind area, a driver without assistance must wait for
// the view to clear regardless of whether the zone is actually empty.
// SafeCross lets the judged-safe fraction turn immediately, so the
// left-turn throughput gain over the no-assistance baseline is
// (segments judged safe) / (blind segments). The paper reports 32/63 ≈ +50%.

#include <vector>

#include "core/safecross.h"

namespace safecross::core {

using dataset::VideoSegment;

struct ThroughputReport {
  std::size_t blind_segments = 0;   // evaluated scenes (all have blind areas)
  std::size_t class0 = 0;           // truth: vehicle hidden, must wait
  std::size_t class1 = 0;           // truth: zone empty, may turn
  std::size_t judged_safe = 0;      // SafeCross verdict: turn now
  std::size_t correct = 0;
  std::size_t missed_threats = 0;   // judged safe but a vehicle was hidden (safety!)

  double accuracy() const {
    return blind_segments ? static_cast<double>(correct) / blind_segments : 0.0;
  }
  /// Fraction of blind scenes that no longer wait = throughput gain.
  double throughput_gain() const {
    return blind_segments ? static_cast<double>(judged_safe) / blind_segments : 0.0;
  }
};

/// Classify every blind-area segment with its weather's model and account
/// safety + throughput.
ThroughputReport throughput_experiment(SafeCross& safecross,
                                       const std::vector<const VideoSegment*>& blind_segments);

/// Utility: pick segments with blind areas, up to per-class caps
/// (the paper's test set: 32 of class 0 and 31 of class 1).
std::vector<const VideoSegment*> select_blind_test_set(
    const std::vector<const VideoSegment*>& pool, std::size_t class0_cap, std::size_t class1_cap);

}  // namespace safecross::core
