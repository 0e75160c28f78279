#pragma once
// The SafeCross framework (paper §III): the four modules wired together.
//
//   VP — video pre-processing: handled upstream by
//        dataset::SegmentCollector / the vision library (bg-sub +
//        morphology + top-down remap). SafeCross consumes the resulting
//        32-frame occupancy windows.
//   VC — video classification: a SlowFast basic model trained on the
//        data-rich scene (daytime).
//   FL — few-shot learning: rare-weather models adapted from the basic
//        model's weights (fewshot::fewshot_transfer / MAML).
//   MS — model switching: a switching::ModelSwitcher accounts the
//        latency of swapping per-weather models on the shared GPU.
//
// The object owns one model per weather condition and answers the only
// question that matters at the intersection: "is it safe to turn left
// right now?"

#include <map>
#include <memory>

#include "dataset/segment.h"
#include "fewshot/maml.h"
#include "fewshot/trainer.h"
#include "models/slowfast.h"
#include "runtime/health_monitor.h"
#include "switching/switcher.h"

namespace safecross::core {

using dataset::VideoSegment;
using dataset::Weather;

struct SafeCrossConfig {
  models::SlowFastConfig model;     // basic model architecture
  fewshot::TrainConfig basic_train; // daytime training schedule
  fewshot::TrainConfig fsl_train;   // few-shot adaptation schedule
  switching::GpuModelConfig gpu;
  switching::SwitchPolicy policy = switching::SwitchPolicy::PipeSwitch;
  float warn_threshold = 0.5f;      // P(danger) above which we warn

  SafeCrossConfig() {
    fsl_train.epochs = 8;
    fsl_train.lr = 0.01f;  // gentle fine-tuning from the basic weights
  }
};

class SafeCross {
 public:
  explicit SafeCross(SafeCrossConfig config = {});

  /// VC module: train the basic model from scratch on the data-rich
  /// scene. Returns the final training loss.
  float train_basic(const std::vector<const VideoSegment*>& daytime_train);

  /// FL module: derive a weather model from the basic model with a small
  /// sample pool. Requires train_basic() first.
  void adapt_weather(Weather weather, const std::vector<const VideoSegment*>& few_samples);

  /// Optional FL refinement (paper Fig. 6): improve the basic model as a
  /// MAML meta-initialization over a distribution of scene tasks before
  /// adapting to rare weathers. Requires train_basic() first. Returns the
  /// final mean query loss.
  float meta_train(const std::vector<fewshot::Task>& tasks, const fewshot::MamlConfig& config);

  /// Register an externally trained model for a weather condition (used
  /// by ablations, e.g. "without few-shot learning").
  void set_model(Weather weather, std::unique_ptr<models::VideoClassifier> model);

  bool has_model(Weather weather) const;
  models::VideoClassifier& model_for(Weather weather);

  /// MS module: the scene changed — switch the active model. Returns the
  /// simulated switching delay in ms (0 if already active). Throws on a
  /// missing model or a failed switch. This is the offline discrete-event
  /// account of a switch (paper Table VI and §V-D); the serving path
  /// picks each window's model directly and realises switches through
  /// its ModelCache instead (serving::StreamServer).
  double on_scene_change(Weather weather);

  Weather active_weather() const { return active_; }
  /// Read-only: only on_scene_change() moves the switcher.
  const switching::ModelSwitcher& switcher() const { return switcher_; }

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

  /// Classify a 32-frame occupancy window with the active model.
  Decision classify(const std::vector<vision::Image>& window);

  /// Classify with a specific weather's model (evaluation helpers).
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
  void register_profile(Weather weather);

  SafeCrossConfig config_;
  std::map<Weather, std::unique_ptr<models::VideoClassifier>> models_;
  switching::ModelSwitcher switcher_;
  Weather active_ = Weather::Daytime;
  bool any_active_ = false;
};

}  // namespace safecross::core
