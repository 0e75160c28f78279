#pragma once
// The SafeCross serving engine: one classifier per weather condition,
// answering the only question that matters at the intersection: "is it
// safe to turn left right now?"
//
// Where the paper's four modules (§III) live:
//
//   VP — video pre-processing: upstream, in dataset::SegmentCollector and
//        the vision library (bg-sub + morphology + top-down remap). The
//        engine consumes the resulting 32-frame occupancy windows.
//   VC — video classification: this class. It holds the per-weather
//        SlowFast models and classifies windows, one at a time or in
//        weather-grouped batches.
//   FL — few-shot learning: offline (core/offline.h). train_basic and
//        adapt_weather build the models this engine holds; MAML is in
//        fewshot/.
//   MS — model switching: offline, paper_switcher (core/offline.h)
//        accounts the Table VI switch delay on a discrete-event
//        ModelSwitcher. The serving path realises switches through its
//        own ModelCache (serving::StreamServer).
//
// The engine holds no training state and no "active" model: every call
// names the weather whose model it wants.

#include <map>
#include <memory>

#include "dataset/segment.h"
#include "models/slowfast.h"
#include "runtime/health_monitor.h"

namespace safecross::core {

using dataset::Weather;

struct SafeCrossConfig {
  models::SlowFastConfig model;  // every weather model's architecture
  float warn_threshold = 0.5f;   // P(danger) above which we warn
};

class SafeCross {
 public:
  explicit SafeCross(SafeCrossConfig config = {});

  const SafeCrossConfig& config() const { return config_; }

  /// Register (or replace) the model that serves a weather condition.
  void set_model(Weather weather, std::unique_ptr<models::VideoClassifier> model);

  bool has_model(Weather weather) const;
  /// Throws std::invalid_argument when the weather has no model.
  models::VideoClassifier& model_for(Weather weather);

  struct Decision {
    int predicted_class = 0;   // 0 danger / 1 safe
    float prob_danger = 1.0f;
    bool warn = true;          // deliver a blind-area warning
    // Model for a trusted classifier verdict; any other value means this
    // is a conservative fail-safe warning (warn is forced true).
    runtime::DecisionSource source = runtime::DecisionSource::Model;
  };

  /// The conservative decision the live path emits when the model cannot
  /// be trusted: warn, assume danger, tagged with the reason.
  static Decision fail_safe_decision(runtime::DecisionSource reason);

  /// Classify a 32-frame occupancy window with a weather's model.
  Decision classify_as(Weather weather, const std::vector<vision::Image>& window);

  /// Classify several windows with one weather's model in a single
  /// (N, 1, T, H, W) forward pass. The per-window math is identical to
  /// classify_as — every layer treats batch samples independently, so
  /// result[i] is bit-identical to classify_as(weather, *windows[i]).
  /// This is the multi-stream serving layer's inference entry point; the
  /// caller guarantees all windows want the same weather (a batch must
  /// never straddle a model switch).
  std::vector<Decision> classify_batch_as(
      Weather weather, const std::vector<const std::vector<vision::Image>*>& windows);

 private:
  SafeCrossConfig config_;
  std::map<Weather, std::unique_ptr<models::VideoClassifier>> models_;
};

}  // namespace safecross::core
