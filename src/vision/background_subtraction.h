#pragma once
// Background subtraction — the paper's chosen detection method (§III-B).
//
// Two models are provided:
//  * RunningAverageBackground — the "dynamic background" the paper uses:
//    B_t = (1-alpha) * B_{t-1} + alpha * F_t, foreground where
//    |F_t - B_t| > threshold. Constantly updated, so slow illumination
//    drift (dawn/dusk, falling snow accumulating) is absorbed.
//  * StaticBackground — ablation baseline: background frozen after a
//    warm-up period (bench_ablation_bgsub contrasts the two).
//
// apply_bits() is one pass over the frame: the background update (dynamic
// model), |F - B| > threshold, and packing into a BitMask the subtractor
// owns and reuses. It then optionally runs morphological opening (erosion
// then dilation) on the bits to suppress single-pixel sensor noise,
// exactly as described in §III-B. The background itself stays float.
// apply() is the float adapter: the same mask widened to a {0, 1} Image.

#include "vision/bitmask.h"
#include "vision/image.h"

namespace safecross::vision {

struct BackgroundSubtractionConfig {
  float learning_rate = 0.05f;   // alpha for the running average
  float threshold = 0.12f;       // |frame - background| foreground cutoff
  bool apply_opening = true;     // erosion-then-dilation noise removal
  int warmup_frames = 10;        // frames before foreground is emitted
};

class BackgroundSubtractor {
 public:
  virtual ~BackgroundSubtractor() = default;

  /// Feed one frame; returns the binary foreground mask (all clear during
  /// warm-up). The mask is owned by the subtractor and overwritten by the
  /// next call. Throws std::invalid_argument, before touching any state,
  /// when the frame's size differs from the learned background's.
  virtual const BitMask& apply_bits(const Image& frame) = 0;

  /// apply_bits widened to a {0, 1} Image.
  Image apply(const Image& frame) { return apply_bits(frame).to_image(); }

  /// Current background estimate (empty before the first frame).
  virtual const Image& background() const = 0;

  virtual void reset() = 0;
};

class RunningAverageBackground final : public BackgroundSubtractor {
 public:
  explicit RunningAverageBackground(BackgroundSubtractionConfig config = {});

  const BitMask& apply_bits(const Image& frame) override;
  const Image& background() const override { return background_; }
  void reset() override;

  int frames_seen() const { return frames_seen_; }

  /// Checkpoint serialization: the learned background plus its age.
  void save_state(common::StateWriter& w) const { persist(*this, w); }
  void load_state(common::StateReader& r) { persist(*this, r); }

 private:
  template <class Self, class A>
  static void persist(Self& self, A& a) {
    a.nested(self.background_);
    a.i32(self.frames_seen_);
  }

  BackgroundSubtractionConfig config_;
  Image background_;
  int frames_seen_ = 0;
  BitMask mask_;
  BitMask scratch_;  // opening's working rows
};

/// Background frozen after `warmup_frames` averaged frames.
class StaticBackground final : public BackgroundSubtractor {
 public:
  explicit StaticBackground(BackgroundSubtractionConfig config = {});

  const BitMask& apply_bits(const Image& frame) override;
  const Image& background() const override { return background_; }
  void reset() override;

 private:
  BackgroundSubtractionConfig config_;
  Image background_;
  int frames_seen_ = 0;
  BitMask mask_;
  BitMask scratch_;  // opening's working rows
};

}  // namespace safecross::vision
