#include "core/safecross.h"

#include <stdexcept>

#include "models/tensor_ops.h"
#include "nn/loss.h"

namespace safecross::core {

SafeCross::SafeCross(SafeCrossConfig config)
    : config_(config), switcher_(config.gpu, config.policy) {}

void SafeCross::register_profile(Weather weather) {
  // The MS module reasons about the deployment-scale backbone the paper
  // runs (SlowFast R50), not our scaled-down trainer — all weather models
  // share the architecture, so they share the transfer/compute profile.
  switching::ModelProfile profile = switching::slowfast_r50_profile();
  profile.name = std::string("safecross-") + vision::weather_name(weather);
  switcher_.register_model(vision::weather_name(weather), std::move(profile));
}

float SafeCross::train_basic(const std::vector<const VideoSegment*>& daytime_train) {
  auto model = std::make_unique<models::SlowFast>(config_.model);
  const float loss = fewshot::train_classifier(*model, daytime_train, config_.basic_train);
  models_[Weather::Daytime] = std::move(model);
  register_profile(Weather::Daytime);
  return loss;
}

void SafeCross::adapt_weather(Weather weather,
                              const std::vector<const VideoSegment*>& few_samples) {
  const auto it = models_.find(Weather::Daytime);
  if (it == models_.end()) {
    throw std::logic_error("SafeCross: train_basic() before adapt_weather()");
  }
  models_[weather] = fewshot::fewshot_transfer(*it->second, few_samples, config_.fsl_train);
  register_profile(weather);
}

float SafeCross::meta_train(const std::vector<fewshot::Task>& tasks,
                            const fewshot::MamlConfig& config) {
  const auto it = models_.find(Weather::Daytime);
  if (it == models_.end()) {
    throw std::logic_error("SafeCross: train_basic() before meta_train()");
  }
  fewshot::Maml maml(config);
  return maml.meta_train(*it->second, tasks);
}

void SafeCross::set_model(Weather weather, std::unique_ptr<models::VideoClassifier> model) {
  models_[weather] = std::move(model);
  register_profile(weather);
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

double SafeCross::on_scene_change(Weather weather) {
  model_for(weather);  // validate
  if (any_active_ && weather == active_) return 0.0;
  const double delay = switcher_.switch_to(vision::weather_name(weather));
  active_ = weather;
  any_active_ = true;
  return delay;
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

SafeCross::Decision SafeCross::classify(const std::vector<vision::Image>& window) {
  if (!any_active_) throw std::logic_error("SafeCross: no active model; call on_scene_change()");
  return classify_as(active_, window);
}

}  // namespace safecross::core
