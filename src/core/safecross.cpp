#include "core/safecross.h"

#include <stdexcept>

#include "models/tensor_ops.h"
#include "nn/loss.h"

namespace safecross::core {

SafeCross::SafeCross(SafeCrossConfig config) : config_(config) {}

void SafeCross::set_model(Weather weather, std::unique_ptr<models::VideoClassifier> model) {
  models_[weather] = std::move(model);
}

bool SafeCross::has_model(Weather weather) const { return models_.count(weather) > 0; }

models::VideoClassifier& SafeCross::model_for(Weather weather) {
  const auto it = models_.find(weather);
  if (it == models_.end()) {
    throw std::invalid_argument(std::string("SafeCross: no model for ") +
                                vision::weather_name(weather));
  }
  return *it->second;
}

SafeCross::Decision SafeCross::fail_safe_decision(runtime::DecisionSource reason) {
  Decision d;
  d.predicted_class = 0;  // assume danger
  d.prob_danger = 1.0f;
  d.warn = true;
  d.source = reason;
  return d;
}

namespace {

/// One decision from one softmax row — shared by the single-window and
/// batched paths so they cannot drift.
SafeCross::Decision decision_from_probs(const float* probs, float warn_threshold) {
  SafeCross::Decision d;
  d.prob_danger = probs[0];  // class 0 = danger
  d.predicted_class = probs[1] > probs[0] ? 1 : 0;
  d.warn = d.prob_danger >= warn_threshold;
  return d;
}

}  // namespace

SafeCross::Decision SafeCross::classify_as(Weather weather,
                                           const std::vector<vision::Image>& window) {
  models::VideoClassifier& model = model_for(weather);
  const nn::Tensor clip = models::clip_to_tensor(window);
  const nn::Tensor scores = model.forward(clip, /*training=*/false);
  const nn::Tensor probs = nn::softmax(scores);
  return decision_from_probs(probs.data(), config_.warn_threshold);
}

std::vector<SafeCross::Decision> SafeCross::classify_batch_as(
    Weather weather, const std::vector<const std::vector<vision::Image>*>& windows) {
  if (windows.empty()) return {};
  models::VideoClassifier& model = model_for(weather);
  const nn::Tensor batch = models::clips_to_batch(windows);
  const nn::Tensor scores = model.forward(batch, /*training=*/false);
  const nn::Tensor probs = nn::softmax(scores);
  const int k = probs.dim(1);
  std::vector<Decision> decisions;
  decisions.reserve(windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    decisions.push_back(
        decision_from_probs(probs.data() + i * static_cast<std::size_t>(k),
                            config_.warn_threshold));
  }
  return decisions;
}

}  // namespace safecross::core
