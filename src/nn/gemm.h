#pragma once
// Packed, cache-blocked single-precision GEMM on row-major matrices.
//
// The compute core of the im2col convolution lowering and of Linear:
// C = alpha * op(A) * op(B) + beta * C, with op in {identity, transpose}.
//
// There is one kernel: A/B panels are packed into per-worker scratch
// arenas and a register-tiled 6x16 FMA microkernel (see
// gemm_microkernel.h) runs over them; untransposed B with at most two A
// strips is streamed straight from the caller's matrix instead of packed.
// sgemm partitions C into 2-D macro-tiles distributed across the global
// ThreadPool, with tile sizes shrunk adaptively so skinny shapes (weight
// gradients, im2col panels, batched classify forwards) still fan out.
// The tests check it against a naive reference GEMM.

namespace safecross::nn {

enum class Trans { kNo, kTrans };

/// C (m x n) = alpha * op(A) (m x k) * op(B) (k x n) + beta * C.
///
/// lda/ldb/ldc are leading dimensions of the *stored* row-major arrays:
/// A is m x k when trans_a == kNo and k x m when kTrans (same for B).
/// beta == 0 overwrites C (it is never read), beta == 1 accumulates.
void sgemm(Trans trans_a, Trans trans_b, int m, int n, int k, float alpha, const float* a, int lda,
           const float* b, int ldb, float beta, float* c, int ldc);

/// sgemm on the calling thread only: the same k-slabs and microkernel,
/// so every C element has the bits sgemm would give it. For callers that
/// already run independent GEMMs in parallel (the conv forward multiplies
/// one output tile per pool job).
void sgemm_serial(Trans trans_a, Trans trans_b, int m, int n, int k, float alpha, const float* a,
                  int lda, const float* b, int ldb, float beta, float* c, int ldc);

}  // namespace safecross::nn
