#pragma once
// Per-stream decision policy for the live warning path:
//
//   * how a frame slot's fate (drop/freeze/noise/blackout) maps onto the
//     SegmentCollector step and the HealthMonitor event stream;
//   * which fail-safe gate fires for a due decision (most severe first);
//   * how a delivered decision is scored against the simulator's ground
//     truth.
//
// serving::StreamContext runs every stream through these functions, in
// batched and sequential serving alike, and the golden-trace suite pins
// their combined behaviour.

#include <cstddef>
#include <cstdint>

#include "dataset/collector.h"
#include "runtime/fault_injector.h"
#include "runtime/health_monitor.h"

namespace safecross::core {

/// Admission-control tier for a stream. Placement assigns every stream a
/// class; when a shard is oversubscribed the fleet layer degrades its
/// lowest classes to conservative warns (DecisionSource::FleetDegraded)
/// rather than dropping windows — degrade-before-drop. Lower enum value =
/// more important.
enum class StreamPriority : std::uint8_t {
  Critical = 0,    // never degraded by admission control
  Standard = 1,    // degraded only after every BestEffort stream is
  BestEffort = 2,  // first to give up model inference under pressure
};

const char* stream_priority_name(StreamPriority p);

/// Apply one frame slot's fate: exactly one collector step plus one
/// health event per slot. Dropped and blacked-out slots count as missing
/// (the content is gone); frozen and noise-burst slots count as degraded
/// (content present but untrustworthy).
void apply_frame_fault(dataset::SegmentCollector& collector, runtime::HealthMonitor& health,
                       runtime::FrameFault fault);

/// Fail-safe gates for a due decision, most severe first; Model means the
/// classifier's verdict may be trusted.
runtime::DecisionSource gate_reason(const runtime::HealthMonitor& health,
                                    const dataset::SegmentCollector& collector,
                                    int frames_per_segment);

/// Online per-stream scorecard: decisions vs ground truth, fail-safe
/// tallies by reason and warning availability. Owned by one stream; not
/// thread-safe — in the serving layer only the batcher thread scores.
/// Decision latencies are the server's (StreamServer::latency_log()).
class StreamScorecard {
 public:
  /// A decision was due this tick (the availability denominator).
  void count_opportunity() { ++decision_opportunities_; }

  /// Account one delivered decision against the tick's ground truth.
  void score(bool danger_truth, int predicted_class, bool warn, runtime::DecisionSource source);

  std::size_t decisions() const { return decisions_; }
  std::size_t warnings() const { return warnings_; }
  std::size_t correct() const { return correct_; }
  std::size_t missed_threats() const { return missed_threats_; }  // said safe, was danger
  std::size_t false_warnings() const { return false_warnings_; }  // said danger, was safe
  double accuracy() const {
    return decisions_ ? static_cast<double>(correct_) / decisions_ : 0.0;
  }

  std::size_t fail_safe_decisions() const { return fail_safe_decisions_; }
  std::size_t model_decisions() const { return decisions_ - fail_safe_decisions_; }
  std::size_t fail_safe_by_source(runtime::DecisionSource s) const {
    return by_source_[static_cast<int>(s)];
  }

  std::size_t decision_opportunities() const { return decision_opportunities_; }
  double availability() const {
    return decision_opportunities_
               ? static_cast<double>(decisions_) / decision_opportunities_
               : 1.0;
  }

  // --- checkpoint serialization (all tallies) ---
  void save_state(common::StateWriter& w) const;
  void load_state(common::StateReader& r);

 private:
  template <class Self, class A>
  static void persist(Self& self, A& a);

  std::size_t decisions_ = 0;
  std::size_t warnings_ = 0;
  std::size_t correct_ = 0;
  std::size_t missed_threats_ = 0;
  std::size_t false_warnings_ = 0;
  std::size_t fail_safe_decisions_ = 0;
  std::size_t decision_opportunities_ = 0;
  std::size_t by_source_[runtime::kDecisionSourceCount] = {};
};

}  // namespace safecross::core
