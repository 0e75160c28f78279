#pragma once
// Packed, cache-blocked single-precision GEMM on row-major matrices.
//
// The compute core of the im2col convolution lowering and of Linear:
// C = alpha * op(A) * op(B) + beta * C, with op in {identity, transpose}.
//
// The default kernel packs A/B panels into per-worker scratch arenas and
// runs a register-tiled 6x16 FMA microkernel (see gemm_microkernel.h);
// C is partitioned into 2-D macro-tiles distributed across the global
// ThreadPool, with tile sizes shrunk adaptively so skinny shapes (weight
// gradients, im2col panels, batched classify forwards) still fan out.
// A scalar fallback (the pre-microkernel implementation) is kept for
// sanitizer/portability builds and as the parity oracle.

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

namespace safecross::nn {

enum class Trans { kNo, kTrans };

/// Which compute kernel sgemm runs; kAuto consults the
/// SAFECROSS_GEMM_KERNEL environment variable.
enum class GemmKernel {
  kAuto,    // resolve from SAFECROSS_GEMM_KERNEL, default micro
  kMicro,   // packed panels + 6x16 register-tiled FMA microkernel
  kScalar,  // unpacked tile loops; portable fallback and parity oracle
};

/// Collapse kAuto to a concrete kernel via SAFECROSS_GEMM_KERNEL
/// ("micro", "scalar"; "auto"/unset mean micro). Throws on an unknown
/// value: a typo'd kernel selection in a CI job must fail loudly, not
/// silently benchmark the wrong code path.
inline GemmKernel resolve_gemm_kernel(GemmKernel requested) {
  if (requested != GemmKernel::kAuto) return requested;
  const char* env = std::getenv("SAFECROSS_GEMM_KERNEL");
  if (env == nullptr || std::strcmp(env, "auto") == 0 || std::strcmp(env, "micro") == 0) {
    return GemmKernel::kMicro;
  }
  if (std::strcmp(env, "scalar") == 0) return GemmKernel::kScalar;
  throw std::invalid_argument(std::string("SAFECROSS_GEMM_KERNEL: unknown kernel '") + env +
                              "' (expected auto|micro|scalar)");
}

/// C (m x n) = alpha * op(A) (m x k) * op(B) (k x n) + beta * C.
///
/// lda/ldb/ldc are leading dimensions of the *stored* row-major arrays:
/// A is m x k when trans_a == kNo and k x m when kTrans (same for B).
/// beta == 0 overwrites C (it is never read), beta == 1 accumulates.
/// `kernel` selects the compute path; kAuto resolves per call, so tests
/// and CI jobs can flip SAFECROSS_GEMM_KERNEL without rebuilding.
void sgemm(Trans trans_a, Trans trans_b, int m, int n, int k, float alpha, const float* a, int lda,
           const float* b, int ldb, float beta, float* c, int ldc,
           GemmKernel kernel = GemmKernel::kAuto);

/// sgemm on the calling thread only: the same kernel dispatch, k-slabs
/// and microkernel, so every C element has the bits sgemm would give it.
/// For callers that already run independent GEMMs in parallel (the
/// Conv3D forward multiplies one output tile per pool job).
void sgemm_serial(Trans trans_a, Trans trans_b, int m, int n, int k, float alpha, const float* a,
                  int lda, const float* b, int ldb, float beta, float* c, int ldc,
                  GemmKernel kernel = GemmKernel::kAuto);

}  // namespace safecross::nn
