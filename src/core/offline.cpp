#include "core/offline.h"

#include <stdexcept>

#include "fewshot/maml.h"

namespace safecross::core {

fewshot::TrainConfig fewshot_schedule(int epochs) {
  fewshot::TrainConfig schedule;
  schedule.epochs = epochs;
  schedule.lr = 0.01f;
  return schedule;
}

float train_basic(SafeCross& engine, const std::vector<const VideoSegment*>& daytime_train,
                  const fewshot::TrainConfig& schedule) {
  auto model = std::make_unique<models::SlowFast>(engine.config().model);
  const float loss = fewshot::train_classifier(*model, daytime_train, schedule);
  engine.set_model(Weather::Daytime, std::move(model));
  return loss;
}

void adapt_weather(SafeCross& engine, Weather weather,
                   const std::vector<const VideoSegment*>& few_samples,
                   const fewshot::TrainConfig& schedule) {
  if (!engine.has_model(Weather::Daytime)) {
    throw std::logic_error("adapt_weather: train_basic() first");
  }
  engine.set_model(weather, fewshot::fewshot_transfer(engine.model_for(Weather::Daytime),
                                                      few_samples, schedule));
}

switching::ModelSwitcher paper_switcher(const SafeCross& engine, switching::GpuModelConfig gpu,
                                        switching::SwitchPolicy policy) {
  switching::ModelSwitcher switcher(gpu, policy);
  for (const Weather weather : vision::kAllWeathers) {
    if (engine.has_model(weather)) {
      switcher.register_model(vision::weather_name(weather), switching::slowfast_r50_profile());
    }
  }
  return switcher;
}

}  // namespace safecross::core
