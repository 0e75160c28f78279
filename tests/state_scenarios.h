#pragma once
// Stream scenarios shared by the state-codec suites: the pinned snapshot
// bytes (test_state_codec.cpp) and the mutation properties
// (test_property_state.cpp).

#include <optional>

#include "serving/stream.h"

namespace safecross::testing {

inline serving::StreamConfig fast_stream() {
  serving::StreamConfig cfg;
  cfg.name = "state-fast";
  cfg.sim_seed = 7022;
  cfg.collector_seed = 7023;
  return cfg;
}

inline serving::StreamConfig fullvp_stream() {
  serving::StreamConfig cfg;
  cfg.name = "state-fullvp";
  cfg.weather = dataset::Weather::Snow;
  cfg.sim_seed = 7002;
  cfg.collector_seed = 7003;
  cfg.vp.mode = dataset::PipelineMode::FullVP;
  return cfg;
}

/// Every frame-fault class, all three geometric faults, the
/// recalibration loop and two scheduled model switches.
inline serving::StreamConfig faulty_stream() {
  serving::StreamConfig cfg;
  cfg.name = "state-faulty";
  cfg.sim_seed = 7024;
  cfg.collector_seed = 7025;
  cfg.fault_seed = 7303;
  cfg.faults.drop_prob = 0.02;
  cfg.faults.freeze_prob = 0.02;
  cfg.faults.noise_prob = 0.02;
  cfg.faults.blackout_prob = 0.002;
  cfg.faults.switch_failure_prob = 0.3;
  cfg.faults.geometry.drift_px_per_frame = 0.04;
  cfg.faults.geometry.shake_amp_px = 0.3;
  cfg.faults.geometry.bump_prob = 0.002;
  cfg.recalib.enabled = true;
  cfg.recalib.check_every_frames = 60;
  cfg.recalib.solve_latency_frames = 20;
  cfg.model_schedule = {{150, dataset::Weather::Rain, 100.0},
                        {400, dataset::Weather::Daytime, 50.0}};
  return cfg;
}

/// Tick a stream `frames` times, answering every due window with a
/// verdict derived from its ordinal, so the scorecard and the trace carry
/// state too.
inline void run(serving::StreamContext& ctx, int frames) {
  for (int f = 0; f < frames; ++f) {
    const std::optional<serving::ReadyWindow> w = ctx.tick();
    if (!w) continue;
    const int cls = static_cast<int>(w->seq % 2);
    ctx.apply(*w, cls, cls == 0 ? 0.75f : 0.25f, cls == 0, w->gate);
  }
}

}  // namespace safecross::testing
