#include "serving/stream.h"

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
  ++frames_since_decision_;

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

void StreamContext::save_state(common::StateWriter& w) const {
  sim_.save_state(w);
  collector_.save_state(w);
  health_.save_state(w);
  w.boolean(injector_active_);
  if (injector_active_) injector_.save_state(w);
  // Snapshots are cut at quiescent points where the server has already
  // drained the recalibration outbox into the journal, so only the loop
  // itself is state here.
  w.boolean(recalib_ != nullptr);
  if (recalib_) recalib_->save_state(w);
  w.u8(static_cast<std::uint8_t>(model_weather_));
  w.u64(schedule_pos_);
  w.u32(switch_epoch_);
  w.u64(frame_);
  w.u64(produced_);
  w.i32(frames_since_decision_);
  scorecard_.save_state(w);
  w.boolean(record_trace_);
  w.u64(trace_.size());
  for (const DecisionRecord& d : trace_) {
    w.u64(d.frame);
    w.boolean(d.danger_truth);
    w.i32(d.predicted_class);
    w.f32(d.prob_danger);
    w.boolean(d.warn);
    w.u8(static_cast<std::uint8_t>(d.source));
    w.u8(static_cast<std::uint8_t>(d.model_weather));
    w.u32(d.epoch);
  }
}

void StreamContext::load_state(common::StateReader& r) {
  sim_.load_state(r);
  collector_.load_state(r);
  health_.load_state(r);
  const bool injector_was_active = r.boolean();
  if (injector_was_active != injector_active_) {
    throw common::StateError("stream: fault-plan mismatch between snapshot and config");
  }
  if (injector_active_) injector_.load_state(r);
  const bool recalib_was_on = r.boolean();
  if (recalib_was_on != (recalib_ != nullptr)) {
    throw common::StateError("stream: recalibration mismatch between snapshot and config");
  }
  if (recalib_) recalib_->load_state(r);
  model_weather_ = static_cast<Weather>(r.u8());
  schedule_pos_ = static_cast<std::size_t>(r.u64());
  switch_epoch_ = r.u32();
  frame_ = static_cast<std::size_t>(r.u64());
  produced_ = static_cast<std::size_t>(r.u64());
  frames_since_decision_ = r.i32();
  scorecard_.load_state(r);
  record_trace_ = r.boolean();
  // The record count is untrusted: bound it by the bytes that are left
  // before sizing anything from it. A record is frame u64, truth u8,
  // class i32, prob f32, warn u8, source u8, weather u8, epoch u32.
  constexpr std::size_t kRecordBytes = 8 + 1 + 4 + 4 + 1 + 1 + 1 + 4;
  const std::uint64_t n_trace = r.u64();
  if (n_trace > r.remaining() / kRecordBytes) {
    throw common::StateError("stream: trace record count exceeds the payload");
  }
  trace_.clear();
  trace_.reserve(static_cast<std::size_t>(n_trace));
  for (std::uint64_t i = 0; i < n_trace; ++i) {
    DecisionRecord d;
    d.frame = static_cast<std::size_t>(r.u64());
    d.danger_truth = r.boolean();
    d.predicted_class = r.i32();
    d.prob_danger = r.f32();
    d.warn = r.boolean();
    d.source = static_cast<runtime::DecisionSource>(r.u8());
    d.model_weather = static_cast<Weather>(r.u8());
    d.epoch = r.u32();
    trace_.push_back(d);
  }
}

}  // namespace safecross::serving
