#pragma once
// Binary mathematical morphology (§III-B: "opening morphology, erosion
// then dilation, on the entire scene").
//
// The structuring element is a square of odd side `kernel` (default 3x3);
// outside the frame counts as background. The work runs on bit-packed
// masks (vision/bitmask.h): the square is separable, so each operation is
// an AND (erode) or OR (dilate) of each row's words shifted by up to
// kernel / 2 bits either way, then of whole words down `kernel` rows.
//
// The float-Image overloads are widening adapters over the same code for
// callers that hold an Image mask (weather detection, tests, benches):
// they pack with > 0.5f and return a {0, 1} Image.

#include "vision/bitmask.h"
#include "vision/image.h"

namespace safecross::vision {

/// A pixel survives erosion only if every pixel under the kernel is set.
/// In place; `scratch` is working storage, reused across calls.
void erode(BitMask& mask, BitMask& scratch, int kernel = 3);

/// A pixel is set after dilation if any pixel under the kernel is set.
void dilate(BitMask& mask, BitMask& scratch, int kernel = 3);

/// Opening = erode then dilate: removes speckle noise smaller than the
/// kernel while (mostly) preserving larger structures.
void opening(BitMask& mask, BitMask& scratch, int kernel = 3);

/// Closing = dilate then erode: fills small holes inside structures.
void closing(BitMask& mask, BitMask& scratch, int kernel = 3);

Image erode(const Image& mask, int kernel = 3);
Image dilate(const Image& mask, int kernel = 3);
Image opening(const Image& mask, int kernel = 3);
Image closing(const Image& mask, int kernel = 3);

}  // namespace safecross::vision
