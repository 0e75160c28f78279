#include "nn/gemm.h"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "common/arena.h"
#include "common/thread_pool.h"
#include "nn/gemm_microkernel.h"

namespace safecross::nn {

namespace {

// ---------------------------------------------------------------------------
// Packed path: one (mc x nc) macro-tile of C, k walked in kKc slabs.
// Both operand panels are packed into this worker's thread-local arena
// (zero allocation at steady state) so the microkernel streams aligned,
// contiguous, transpose-free strips whatever the caller's layout was.

void packed_tile(Trans trans_a, Trans trans_b, int i0, int i1, int j0, int j1, int k, float alpha,
                 const float* a, int lda, const float* b, int ldb, float beta, float* c, int ldc) {
  using namespace detail;
  const int mc = i1 - i0;
  const int nc = j1 - j0;
  const int mc_round = (mc + kMr - 1) / kMr * kMr;
  const int nc_round = (nc + kNr - 1) / kNr * kNr;
  const int kc_max = std::min(k, kKc);

  // With untransposed B and only one or two A strips, each B panel is
  // read at most twice: stream it straight from the caller's matrix and
  // skip the pack entirely (only the sub-16 column tail is packed, for
  // zero-padding). This is the im2col conv-forward shape — m = c_out,
  // n = output positions — where packing B would double memory traffic.
  const bool b_direct = trans_b == Trans::kNo && mc <= 2 * kMr;

  ScratchArena& arena = ScratchArena::local();
  ScratchArena::Scope scope(arena);
  float* pa = arena.floats(static_cast<std::size_t>(mc_round) * kc_max);
  float* pb =
      arena.floats(static_cast<std::size_t>(b_direct ? kNr : nc_round) * kc_max);

  for (int k0 = 0; k0 < k; k0 += kKc) {
    const int kc = std::min(kKc, k - k0);
    pack_a(trans_a, a, lda, i0, mc, k0, kc, pa);
    if (!b_direct) pack_b(trans_b, b, ldb, k0, kc, j0, nc, pb);
    // The first slab applies the caller's beta; later slabs accumulate.
    const float beta_eff = k0 == 0 ? beta : 1.0f;
    for (int jr = 0; jr < nc; jr += kNr) {
      const int nr = std::min(kNr, nc - jr);
      const float* bstrip = nullptr;
      if (!b_direct) {
        bstrip = pb + static_cast<std::size_t>(jr) * kc;
      } else if (nr < kNr) {
        pack_b(trans_b, b, ldb, k0, kc, j0 + jr, nr, pb);
        bstrip = pb;
      }
      for (int ir = 0; ir < mc; ir += kMr) {
        const int mr = std::min(kMr, mc - ir);
        alignas(64) float acc[kMr * kNr];
        if (bstrip != nullptr) {
          microkernel_6x16(kc, pa + static_cast<std::size_t>(ir) * kc, bstrip, acc);
        } else {
          microkernel_6x16_bdirect(kc, pa + static_cast<std::size_t>(ir) * kc,
                                   b + static_cast<std::size_t>(k0) * ldb + j0 + jr, ldb, acc);
        }
        store_tile(acc, alpha, beta_eff, c + static_cast<std::size_t>(i0 + ir) * ldc + j0 + jr,
                   ldc, mr, nr);
      }
    }
  }
}

// Shared argument checks and degenerate shapes. Returns true when C is
// already final (empty, or k == 0 so only the beta scaling applies).
bool degenerate(int m, int n, int k, float beta, float* c, int ldc) {
  if (m < 0 || n < 0 || k < 0) throw std::invalid_argument("sgemm: negative dimension");
  if (m == 0 || n == 0) return true;
  if (k != 0) return false;
  for (int i = 0; i < m; ++i) {
    float* crow = c + static_cast<std::size_t>(i) * ldc;
    if (beta == 0.0f) {
      std::fill(crow, crow + n, 0.0f);
    } else if (beta != 1.0f) {
      for (int j = 0; j < n; ++j) crow[j] *= beta;
    }
  }
  return true;
}

}  // namespace

void sgemm(Trans trans_a, Trans trans_b, int m, int n, int k, float alpha, const float* a, int lda,
           const float* b, int ldb, float beta, float* c, int ldc) {
  if (degenerate(m, n, k, beta, c, ldc)) return;

  // Tile C in 2-D; start from cache-friendly macro-tiles and shrink until
  // there is enough fan-out for the pool, down to one microkernel block.
  // Skinny shapes (weight grads: tiny m*n, huge k; im2col panels: tiny m,
  // huge n) fan out along whichever axis has room. k is never split, so
  // each C element's summation order — and thus the result bit pattern —
  // is independent of the worker count and tiling decisions.
  int tm = std::min(m, detail::kMc);
  int tn = std::min(n, detail::kNc);
  const std::size_t workers = ThreadPool::global().size();
  auto tiles = [&] {
    return static_cast<std::size_t>((m + tm - 1) / tm) *
           static_cast<std::size_t>((n + tn - 1) / tn);
  };
  while (tiles() < 2 * workers && (tm > detail::kMr || tn > detail::kNr)) {
    if (tn > detail::kNr) {
      tn = std::max(detail::kNr, tn / 2);
    } else {
      tm = std::max(detail::kMr, tm / 2);
    }
  }

  const int tiles_n = (n + tn - 1) / tn;
  ThreadPool::global().parallel_for(tiles(), [&](std::size_t tile) {
    const int ti = static_cast<int>(tile) / tiles_n;
    const int tj = static_cast<int>(tile) % tiles_n;
    const int i0 = ti * tm, i1 = std::min(m, i0 + tm);
    const int j0 = tj * tn, j1 = std::min(n, j0 + tn);
    packed_tile(trans_a, trans_b, i0, i1, j0, j1, k, alpha, a, lda, b, ldb, beta, c, ldc);
  });
}

void sgemm_serial(Trans trans_a, Trans trans_b, int m, int n, int k, float alpha, const float* a,
                  int lda, const float* b, int ldb, float beta, float* c, int ldc) {
  if (degenerate(m, n, k, beta, c, ldc)) return;
  for (int i0 = 0; i0 < m; i0 += detail::kMc) {
    for (int j0 = 0; j0 < n; j0 += detail::kNc) {
      packed_tile(trans_a, trans_b, i0, std::min(m, i0 + detail::kMc), j0,
                  std::min(n, j0 + detail::kNc), k, alpha, a, lda, b, ldb, beta, c, ldc);
    }
  }
}

}  // namespace safecross::nn
