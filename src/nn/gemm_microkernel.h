#pragma once
// Register-tiled GEMM microkernel and panel packing (internal to the nn
// library; the public entry point is nn/gemm.h).
//
// Layout (BLIS-style, row-major):
//   - op(A) row panels are packed into strips of kMr rows, k-major:
//     pa[strip][kk * kMr + r]. Rows past m are zero-padded, so the
//     microkernel never branches on the m tail.
//   - op(B) column panels are packed into strips of kNr columns:
//     pb[strip][kk * kNr + c], zero-padded past n.
//   - The 6x16 microkernel keeps a kMr x kNr accumulator block in
//     registers and does one broadcast(A) x vector(B) FMA row per k step.
//     The block is written as plain arrays with compile-time extents so
//     the compiler lowers it to whatever the build ISA offers: one
//     16-lane zmm row on AVX-512, two ymm on AVX2, four xmm on SSE —
//     the same source is the dispatch table across widths.

#include <cstddef>

#include "nn/gemm.h"

namespace safecross::nn::detail {

inline constexpr int kMr = 6;    // microkernel rows (broadcast axis)
inline constexpr int kNr = 16;   // microkernel columns (vector axis)
inline constexpr int kKc = 256;  // k-slab: one packed A strip spans kKc
inline constexpr int kMc = 96;   // rows per macro-tile (16 kMr strips)
inline constexpr int kNc = 512;  // cols per macro-tile (32 kNr strips)

/// Pack op(A) rows [i0, i0 + mc) x k [k0, k0 + kc) into kMr strips.
/// pa must hold ceil(mc / kMr) * kMr * kc floats.
inline void pack_a(Trans trans_a, const float* a, int lda, int i0, int mc, int k0, int kc,
                   float* pa) {
  for (int s = 0; s < mc; s += kMr) {
    const int rows = mc - s < kMr ? mc - s : kMr;
    float* strip = pa + static_cast<std::size_t>(s) * kc;
    if (trans_a == Trans::kNo) {
      // op(A)(i, kk) = a[i * lda + kk]: copy row-by-row, transposing into
      // the k-major strip.
      for (int r = 0; r < rows; ++r) {
        const float* src = a + static_cast<std::size_t>(i0 + s + r) * lda + k0;
        for (int kk = 0; kk < kc; ++kk) strip[static_cast<std::size_t>(kk) * kMr + r] = src[kk];
      }
    } else {
      // op(A)(i, kk) = a[kk * lda + i]: source rows are contiguous in i,
      // exactly the strip's inner axis.
      for (int kk = 0; kk < kc; ++kk) {
        const float* src = a + static_cast<std::size_t>(k0 + kk) * lda + i0 + s;
        float* dst = strip + static_cast<std::size_t>(kk) * kMr;
        for (int r = 0; r < rows; ++r) dst[r] = src[r];
      }
    }
    if (rows < kMr) {
      for (int kk = 0; kk < kc; ++kk) {
        for (int r = rows; r < kMr; ++r) strip[static_cast<std::size_t>(kk) * kMr + r] = 0.0f;
      }
    }
  }
}

/// Pack op(B) k [k0, k0 + kc) x cols [j0, j0 + nc) into kNr strips.
/// pb must hold ceil(nc / kNr) * kNr * kc floats.
inline void pack_b(Trans trans_b, const float* b, int ldb, int k0, int kc, int j0, int nc,
                   float* pb) {
  for (int s = 0; s < nc; s += kNr) {
    const int cols = nc - s < kNr ? nc - s : kNr;
    float* strip = pb + static_cast<std::size_t>(s) * kc;
    if (trans_b == Trans::kNo) {
      // op(B)(kk, j) = b[kk * ldb + j]: contiguous in j, the inner axis.
      for (int kk = 0; kk < kc; ++kk) {
        const float* src = b + static_cast<std::size_t>(k0 + kk) * ldb + j0 + s;
        float* dst = strip + static_cast<std::size_t>(kk) * kNr;
        for (int c = 0; c < cols; ++c) dst[c] = src[c];
      }
    } else {
      // op(B)(kk, j) = b[j * ldb + kk]: walk each stored row (contiguous
      // in kk) and scatter into the strips.
      for (int c = 0; c < cols; ++c) {
        const float* src = b + static_cast<std::size_t>(j0 + s + c) * ldb + k0;
        for (int kk = 0; kk < kc; ++kk) strip[static_cast<std::size_t>(kk) * kNr + c] = src[kk];
      }
    }
    if (cols < kNr) {
      for (int kk = 0; kk < kc; ++kk) {
        for (int c = cols; c < kNr; ++c) strip[static_cast<std::size_t>(kk) * kNr + c] = 0.0f;
      }
    }
  }
}

// One microkernel row: 16 floats the compiler maps onto the widest
// vectors the build ISA offers (1 zmm / 2 ymm / 4 xmm). aligned(4) keeps
// loads legal at any float address; may_alias because we view packed
// float strips through it.
typedef float Row16 __attribute__((vector_size(64), aligned(4), may_alias));

/// acc (kMr x kNr) = Astrip * Bstrip over kc steps. Written with explicit
/// vector rows so the six accumulators demonstrably live in registers —
/// auto-vectorization of the equivalent scalar loops picks a 4-lane
/// broadcast shape that runs ~50x slower.
inline void microkernel_6x16(int kc, const float* __restrict__ pa, const float* __restrict__ pb,
                             float* __restrict__ acc) {
  Row16 c0{}, c1{}, c2{}, c3{}, c4{}, c5{};
  for (int kk = 0; kk < kc; ++kk) {
    const Row16 bv = *reinterpret_cast<const Row16*>(pb + static_cast<std::size_t>(kk) * kNr);
    const float* arow = pa + static_cast<std::size_t>(kk) * kMr;
    c0 += arow[0] * bv;
    c1 += arow[1] * bv;
    c2 += arow[2] * bv;
    c3 += arow[3] * bv;
    c4 += arow[4] * bv;
    c5 += arow[5] * bv;
  }
  *reinterpret_cast<Row16*>(acc + 0 * kNr) = c0;
  *reinterpret_cast<Row16*>(acc + 1 * kNr) = c1;
  *reinterpret_cast<Row16*>(acc + 2 * kNr) = c2;
  *reinterpret_cast<Row16*>(acc + 3 * kNr) = c3;
  *reinterpret_cast<Row16*>(acc + 4 * kNr) = c4;
  *reinterpret_cast<Row16*>(acc + 5 * kNr) = c5;
}

/// As microkernel_6x16, but streams the B strip straight from the caller's
/// untransposed matrix (row kk at stride ldb) instead of a packed panel.
/// Packing B pays only when a panel is re-read once per A strip; skinny-m
/// GEMMs (the im2col conv forwards: m = c_out, a handful of A strips,
/// tens of MB of B) read B essentially once, so the pack is pure loss.
inline void microkernel_6x16_bdirect(int kc, const float* __restrict__ pa,
                                     const float* __restrict__ b, int ldb,
                                     float* __restrict__ acc) {
  Row16 c0{}, c1{}, c2{}, c3{}, c4{}, c5{};
  for (int kk = 0; kk < kc; ++kk) {
    const Row16 bv = *reinterpret_cast<const Row16*>(b + static_cast<std::size_t>(kk) * ldb);
    const float* arow = pa + static_cast<std::size_t>(kk) * kMr;
    c0 += arow[0] * bv;
    c1 += arow[1] * bv;
    c2 += arow[2] * bv;
    c3 += arow[3] * bv;
    c4 += arow[4] * bv;
    c5 += arow[5] * bv;
  }
  *reinterpret_cast<Row16*>(acc + 0 * kNr) = c0;
  *reinterpret_cast<Row16*>(acc + 1 * kNr) = c1;
  *reinterpret_cast<Row16*>(acc + 2 * kNr) = c2;
  *reinterpret_cast<Row16*>(acc + 3 * kNr) = c3;
  *reinterpret_cast<Row16*>(acc + 4 * kNr) = c4;
  *reinterpret_cast<Row16*>(acc + 5 * kNr) = c5;
}

/// C block (mr x nr at `c`) = alpha * acc + beta * C. beta == 0 never
/// reads C (so uninitialised/NaN output buffers are safe to overwrite).
inline void store_tile(const float* acc, float alpha, float beta, float* c, int ldc, int mr,
                       int nr) {
  for (int r = 0; r < mr; ++r) {
    const float* arow = acc + r * kNr;
    float* crow = c + static_cast<std::size_t>(r) * ldc;
    if (beta == 0.0f) {
      for (int j = 0; j < nr; ++j) crow[j] = alpha * arow[j];
    } else if (beta == 1.0f) {
      for (int j = 0; j < nr; ++j) crow[j] += alpha * arow[j];
    } else {
      for (int j = 0; j < nr; ++j) crow[j] = alpha * arow[j] + beta * crow[j];
    }
  }
}

}  // namespace safecross::nn::detail
