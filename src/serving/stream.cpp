#include "serving/stream.h"

#include <limits>

#include "sim/weather.h"

namespace safecross::serving {

using runtime::DecisionSource;
using runtime::FrameFault;

StreamContext::StreamContext(StreamConfig config)
    : config_(std::move(config)),
      sim_(sim::weather_params(config_.weather), config_.sim_seed),
      camera_(sim_.intersection().geometry()),
      collector_(sim_, camera_, config_.vp, config_.collector_seed),
      health_(config_.health),
      injector_(config_.faults, config_.fault_seed),
      injector_active_(config_.faults.enabled()),
      model_weather_(config_.weather) {
  if (injector_active_) {
    collector_.set_frame_hook([this](vision::Image& frame) { injector_.perturb(frame); });
    if (config_.faults.geometry.enabled()) {
      injector_.set_frame_size(camera_.config().width, camera_.config().height);
      collector_.set_view_perturbation(&injector_.view_perturbation());
    }
  }
  if (config_.recalib.enabled) {
    config_.recalib.frame_width = camera_.config().width;
    config_.recalib.frame_height = camera_.config().height;
    estimator_ = std::make_unique<vision::CalibrationEstimator>(camera_.reference_view(sim_),
                                                                config_.recalib.estimator);
    recalib_ = std::make_unique<runtime::RecalibrationLoop>(
        config_.recalib, camera_.image_to_grid(config_.vp.grid_w, config_.vp.grid_h), &health_,
        [this](const vision::Homography& guess) {
          const vision::Homography* view =
              injector_.geometry_active() ? &injector_.view_perturbation() : nullptr;
          return estimator_->estimate(camera_.render_view(sim_, view), guess);
        },
        [this](const vision::Homography& h) { collector_.set_image_to_grid(h); });
  }
}

std::vector<runtime::RecalibrationEntry> StreamContext::take_recalibrations() {
  std::lock_guard<std::mutex> lk(recalib_mu_);
  std::vector<runtime::RecalibrationEntry> out;
  out.swap(recalib_outbox_);
  return out;
}

std::optional<ReadyWindow> StreamContext::tick() {
  ++frame_;

  // Scheduled model switches: from this frame on the stream's decisions
  // want the new weather's model; the stream-visible swap latency gates
  // decisions conservative through the health watchdog meanwhile. A swap
  // the fault plan fails latches every decision fail-safe until a later
  // realised switch succeeds.
  while (schedule_pos_ < config_.model_schedule.size() &&
         config_.model_schedule[schedule_pos_].at_frame <= frame_) {
    const ModelSwitchEvent& ev = config_.model_schedule[schedule_pos_++];
    if (ev.to != model_weather_) {
      model_weather_ = ev.to;
      ++switch_epoch_;
      if (injector_active_ && injector_.next_switch_fails()) {
        health_.switch_failed();
      } else {
        health_.switch_recovered();
        if (ev.delay_ms > 0.0) health_.switch_started(ev.delay_ms);
      }
    }
  }

  FrameFault fault = FrameFault::None;
  if (injector_active_) fault = injector_.next_frame_fault();
  core::apply_frame_fault(collector_, health_, fault);
  if (recalib_) {
    // The loop (and its estimate/apply callbacks) runs right here on the
    // producer thread, which owns the sim and collector. Completed
    // recalibrations cross to the consumer through the locked outbox.
    recalib_->on_frame(frame_);
    std::vector<runtime::RecalibrationEntry> done = recalib_->take_completed();
    if (!done.empty()) {
      std::lock_guard<std::mutex> lk(recalib_mu_);
      recalib_outbox_.insert(recalib_outbox_.end(), done.begin(), done.end());
    }
  }
  // Saturates: a camera that sees no waiting turner for 2^31 frames
  // (~2.3 years at 30 Hz) must not overflow it.
  if (frames_since_decision_ < std::numeric_limits<int>::max()) ++frames_since_decision_;

  const sim::Vehicle* subject = sim_.subject(config_.vp.approach);
  const bool subject_waiting =
      subject != nullptr && subject->state == sim::DriverState::HoldingAtStop;
  const bool warmed_up =
      collector_.frames_processed() >= static_cast<std::size_t>(config_.warmup_frames);
  if (!(subject_waiting && warmed_up && frames_since_decision_ >= config_.decision_stride)) {
    return std::nullopt;
  }

  scorecard_.count_opportunity();
  frames_since_decision_ = 0;

  ReadyWindow w;
  w.seq = produced_++;
  w.frame = frame_;
  w.danger_truth = sim_.dangerous_to_turn(config_.vp.approach);
  // Admission-control degrade wins over the health gates: the whole point
  // is to shed the model's compute, so the window copy below must not
  // happen either. The outcome (conservative warn) is what every health
  // gate would deliver anyway; only the tagged source differs.
  w.gate = (config_.fleet_degraded || live_degraded())
               ? DecisionSource::FleetDegraded
               : core::gate_reason(health_, collector_, config_.vp.frames_per_segment);
  w.model_weather = model_weather_;
  w.epoch = switch_epoch_;
  if (w.gate == DecisionSource::Model) {
    w.window.assign(collector_.window().begin(), collector_.window().end());
  }
  w.captured = std::chrono::steady_clock::now();
  return w;
}

void StreamContext::apply(const ReadyWindow& w, int predicted_class, float prob_danger,
                          bool warn, DecisionSource source) {
  scorecard_.score(w.danger_truth, predicted_class, warn, source);
  if (record_trace_) {
    if (trace_.size() <= w.seq) trace_.resize(w.seq + 1);
    trace_[w.seq] = {w.frame,       w.danger_truth, predicted_class, prob_danger,
                     warn,          source,         w.model_weather, w.epoch};
  }
}

template <class Self, class A>
void StreamContext::persist(Self& self, A& a) {
  a.nested(self.sim_);
  a.nested(self.collector_);
  a.nested(self.health_);
  // Whether the injector and the recalibration loop exist is config, not
  // state; the flags let a load refuse a snapshot cut under another config.
  bool injector = self.injector_active_;
  a.boolean(injector);
  if (injector != self.injector_active_) {
    throw common::StateError("stream: fault-plan mismatch between snapshot and config");
  }
  if (self.injector_active_) a.nested(self.injector_);
  // Snapshots are cut at quiescent points where the server has already
  // drained the recalibration outbox into the journal, so only the loop
  // itself is state here.
  bool recalib = self.recalib_ != nullptr;
  a.boolean(recalib);
  if (recalib != (self.recalib_ != nullptr)) {
    throw common::StateError("stream: recalibration mismatch between snapshot and config");
  }
  if (self.recalib_) a.nested(*self.recalib_);
  a.enum_u8(self.model_weather_, Weather::Fog);
  a.u64(self.schedule_pos_);
  a.u32(self.switch_epoch_);
  a.u64(self.frame_);
  a.u64(self.produced_);
  a.i32(self.frames_since_decision_);
  a.nested(self.scorecard_);
  a.boolean(self.record_trace_);
  a.seq(self.trace_, [](auto& a, auto& d) {
    a.u64(d.frame);
    a.boolean(d.danger_truth);
    a.i32(d.predicted_class);
    a.f32(d.prob_danger);
    a.boolean(d.warn);
    a.enum_u8(d.source, DecisionSource::FleetDegraded);
    a.enum_u8(d.model_weather, Weather::Fog);
    a.u32(d.epoch);
  });
}

void StreamContext::save_state(common::StateWriter& w) const { persist(*this, w); }
void StreamContext::load_state(common::StateReader& r) {
  persist(*this, r);
  // apply() indexes the trace by window ordinal, and a snapshot is cut
  // with every produced window applied.
  if (record_trace_ && trace_.size() != produced_) {
    throw common::StateError("stream: trace length differs from windows produced");
  }
}

}  // namespace safecross::serving
