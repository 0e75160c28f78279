#pragma once
// Test-only morphology oracle: the per-pixel 3x3 (or k x k) scan over a
// float {0,1} mask that the vision library ran before it moved to
// bit-packed masks. Kept verbatim so the packed erode/dilate/opening/
// closing can be checked against an independent implementation. Serial
// and quadratic in the kernel on purpose; use small geometries.

#include "vision/image.h"

namespace safecross::testing {

/// A pixel survives erosion only if every pixel under the kernel is
/// > 0.5; outside the frame counts as background.
vision::Image reference_erode(const vision::Image& mask, int kernel = 3);

/// A pixel is set after dilation if any pixel under the kernel is > 0.5.
vision::Image reference_dilate(const vision::Image& mask, int kernel = 3);

vision::Image reference_opening(const vision::Image& mask, int kernel = 3);
vision::Image reference_closing(const vision::Image& mask, int kernel = 3);

}  // namespace safecross::testing
