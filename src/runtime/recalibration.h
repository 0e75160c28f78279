#pragma once
// Online self-healing calibration loop.
//
// Closes the loop between the geometric fault family (FaultInjector) and
// the CalibrationEstimator: on a frame-clocked cadence the loop
// re-estimates the camera's view perturbation against the last applied
// calibration; residual drift past the threshold latches HealthMonitor's
// Miscalibrated cause (decisions degrade to conservative warns through
// the existing DecisionSource gating), a re-estimate runs under
// retry_with_backoff, and after a modeled solve latency the corrected
// image->grid homography atomically swaps into the collector and the
// danger zone is re-derived by the owner's apply callback. Every accepted
// recalibration is surfaced as a RecalibrationRecord for write-ahead
// journaling, so recovery can verify the replayed calibration lineage
// bit-identically.
//
//          drift ≤ threshold            estimate fails
//        ┌─────────────────┐          ┌──────────────┐
//        ▼                 │          ▼              │
//   Calibrated ──drift──▶ Miscalibrated ──estimate──▶ Recalibrating
//        ▲                 (health latched)            │ solve-latency
//        └────────────── swap applied ─────────────────┘ countdown
//
// Determinism contract: everything is frame-clocked — the solve latency
// is counted in frames (like HealthMonitor::switch_started), the retry
// backoff's sleep is a no-op, and the estimator is stateless — so the
// same stream replays the same calibration lineage bit-identically,
// which is what makes kill–recover work.

#include <cstdint>
#include <functional>
#include <vector>

#include "common/state_io.h"
#include "runtime/health_monitor.h"
#include "runtime/journal.h"
#include "runtime/supervisor.h"
#include "vision/calibration.h"
#include "vision/homography.h"

namespace safecross::runtime {

struct RecalibrationConfig {
  bool enabled = false;
  std::size_t check_every_frames = 30;  // drift-check cadence (~1 s at 30 Hz)
  double drift_threshold_px = 0.75;     // mean corner displacement that latches
  std::size_t solve_latency_frames = 30;  // modeled background-solve latency
  int frame_width = 256;   // camera frame dims: the drift metric averages
  int frame_height = 144;  // corner displacement over this rectangle
  BackoffPolicy backoff;                  // estimate retry budget per check
  vision::CalibrationConfig estimator;
};

enum class CalibrationState {
  Calibrated = 0,     // last estimate within threshold
  Miscalibrated = 1,  // drift latched, no accepted solve candidate yet
  Recalibrating = 2,  // candidate accepted, solve latency counting down
};

const char* calibration_state_name(CalibrationState s);

class RecalibrationLoop {
 public:
  /// `estimate` re-estimates the view perturbation from the live frame,
  /// seeded with the last applied estimate (so the estimator only has to
  /// recover drift since the last swap); `apply` swaps the corrected
  /// image->grid homography into the pipeline (collector + danger zone).
  /// Both run on the tick/collect thread inside on_frame().
  using EstimateFn = std::function<vision::CalibrationEstimate(const vision::Homography&)>;
  using ApplyFn = std::function<void(const vision::Homography&)>;

  RecalibrationLoop(RecalibrationConfig config, vision::Homography ideal_image_to_grid,
                    HealthMonitor* health, EstimateFn estimate, ApplyFn apply);

  const RecalibrationConfig& config() const { return config_; }

  /// Advance the loop one frame (call once per frame with the 1-based
  /// frame ordinal, after the frame's fault fate has been applied).
  void on_frame(std::uint64_t frame);

  CalibrationState state() const { return state_; }
  const vision::Homography& applied_view() const { return applied_view_; }

  /// Accepted recalibrations since the last take (for write-ahead
  /// journaling). Records come out in application order.
  std::vector<RecalibrationEntry> take_completed();

  // --- counters / diagnostics ---
  std::size_t checks_run() const { return checks_run_; }
  std::size_t miscalibration_episodes() const { return episodes_; }
  std::size_t recalibrations() const { return recalibrations_; }
  std::size_t estimates_rejected() const { return estimates_rejected_; }
  double last_drift_px() const { return last_drift_px_; }

  // --- checkpoint serialization ---
  // The full loop state (including the pending solve and its countdown),
  // so a restored stream re-detects and re-applies the same calibration
  // lineage the killed one would have. The estimator itself is stateless
  // and needs nothing here.
  void save_state(common::StateWriter& w) const;
  void load_state(common::StateReader& r);

 private:
  template <class Self, class A>
  static void persist(Self& self, A& a);

  bool start_solve(const vision::CalibrationEstimate& est, std::uint32_t attempts);

  RecalibrationConfig config_;
  vision::Homography ideal_grid_;  // the calibrated-camera image->grid map
  HealthMonitor* health_;
  EstimateFn estimate_;
  ApplyFn apply_;

  CalibrationState state_ = CalibrationState::Calibrated;
  vision::Homography applied_view_;   // identity: perfectly calibrated
  vision::Homography pending_view_;
  vision::Homography pending_grid_;
  RecalibrationEntry pending_record_;
  std::size_t countdown_ = 0;

  std::vector<RecalibrationEntry> completed_;
  std::size_t checks_run_ = 0;
  std::size_t episodes_ = 0;
  std::size_t recalibrations_ = 0;
  std::size_t estimates_rejected_ = 0;
  double last_drift_px_ = 0.0;
};

/// Mean image-corner displacement (px) between two ideal->perturbed view
/// estimates over a width x height frame — the loop's drift metric.
double view_drift_px(const vision::Homography& a, const vision::Homography& b, int width,
                     int height);

}  // namespace safecross::runtime
