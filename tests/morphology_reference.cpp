#include "morphology_reference.h"

#include <stdexcept>

namespace safecross::testing {

using vision::Image;

namespace {

enum class Op { Erode, Dilate };

Image morph(const Image& mask, int kernel, Op op) {
  if (kernel < 1 || kernel % 2 == 0) throw std::invalid_argument("kernel must be odd and >= 1");
  const int r = kernel / 2;
  Image out(mask.width(), mask.height());
  for (int y = 0; y < mask.height(); ++y) {
    for (int x = 0; x < mask.width(); ++x) {
      bool value = (op == Op::Erode);
      for (int dy = -r; dy <= r && (op == Op::Erode ? value : !value); ++dy) {
        for (int dx = -r; dx <= r; ++dx) {
          // Outside the frame counts as background (0).
          const bool set = mask.at_clamped(x + dx, y + dy, 0.0f) > 0.5f;
          if (op == Op::Erode && !set) {
            value = false;
            break;
          }
          if (op == Op::Dilate && set) {
            value = true;
            break;
          }
        }
      }
      out.at(x, y) = value ? 1.0f : 0.0f;
    }
  }
  return out;
}

}  // namespace

Image reference_erode(const Image& mask, int kernel) { return morph(mask, kernel, Op::Erode); }

Image reference_dilate(const Image& mask, int kernel) { return morph(mask, kernel, Op::Dilate); }

Image reference_opening(const Image& mask, int kernel) {
  return reference_dilate(reference_erode(mask, kernel), kernel);
}

Image reference_closing(const Image& mask, int kernel) {
  return reference_erode(reference_dilate(mask, kernel), kernel);
}

}  // namespace safecross::testing
