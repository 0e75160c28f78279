#pragma once
// The paper's offline flow around the serving engine (core/safecross.h):
// the FL module builds the per-weather models, and the MS module accounts
// what a discrete-event switch between them costs (paper Table VI,
// §V-D). The paper-table benches, the examples and their tests use it;
// the serving path does not link it.

#include <vector>

#include "core/safecross.h"
#include "fewshot/trainer.h"
#include "switching/switcher.h"

namespace safecross::core {

using dataset::VideoSegment;

/// The few-shot adaptation schedule: gentle fine-tuning from the basic
/// weights.
fewshot::TrainConfig fewshot_schedule(int epochs = 8);

/// VC module: train the basic model from scratch on the data-rich scene
/// (daytime) and register it as the engine's daytime model. Returns the
/// final training loss.
float train_basic(SafeCross& engine, const std::vector<const VideoSegment*>& daytime_train,
                  const fewshot::TrainConfig& schedule = {});

/// FL module: derive a weather model from the engine's daytime model with
/// a small sample pool. Throws std::logic_error without a daytime model.
void adapt_weather(SafeCross& engine, Weather weather,
                   const std::vector<const VideoSegment*>& few_samples,
                   const fewshot::TrainConfig& schedule = fewshot_schedule());

/// MS module: a switcher with the deployment-scale SlowFast R50 profile
/// registered for every weather the engine holds, under the weather's
/// name. All weather models share the architecture, so they share the
/// transfer/compute profile. switch_to() returns a switch's delay in ms
/// (0 when the weather is already active) and throws
/// std::invalid_argument for a weather without a model.
switching::ModelSwitcher paper_switcher(
    const SafeCross& engine, switching::GpuModelConfig gpu = {},
    switching::SwitchPolicy policy = switching::SwitchPolicy::PipeSwitch);

}  // namespace safecross::core
