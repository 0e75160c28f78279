// Tiled SGEMM vs a naive reference, across transpose modes, alpha/beta
// combinations, strided leading dimensions, and shapes straddling the
// tile and microkernel boundaries (6x16 register block, 96x512
// macro-tiles, 256-wide k slabs).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/thread_pool.h"
#include "gradcheck.h"
#include "nn/gemm.h"

namespace safecross::nn {
namespace {

// op(A) is m x k, op(B) is k x n, all matrices row-major and dense
// (lda == columns of the stored matrix).
std::vector<float> reference_gemm(Trans trans_a, Trans trans_b, int m, int n, int k, float alpha,
                                  const std::vector<float>& a, const std::vector<float>& b,
                                  float beta, std::vector<float> c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int kk = 0; kk < k; ++kk) {
        const float av = trans_a == Trans::kNo ? a[i * k + kk] : a[kk * m + i];
        const float bv = trans_b == Trans::kNo ? b[kk * n + j] : b[j * k + kk];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[i * n + j] = alpha * static_cast<float>(acc) + beta * c[i * n + j];
    }
  }
  return c;
}

std::vector<float> random_matrix(int rows, int cols, std::uint64_t seed) {
  safecross::Rng rng(seed);
  std::vector<float> m(static_cast<std::size_t>(rows) * cols);
  for (auto& v : m) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return m;
}

void expect_sgemm_matches(Trans trans_a, Trans trans_b, int m, int n, int k, float alpha,
                          float beta, std::uint64_t seed) {
  const int a_rows = trans_a == Trans::kNo ? m : k;
  const int a_cols = trans_a == Trans::kNo ? k : m;
  const int b_rows = trans_b == Trans::kNo ? k : n;
  const int b_cols = trans_b == Trans::kNo ? n : k;
  const auto a = random_matrix(a_rows, a_cols, seed);
  const auto b = random_matrix(b_rows, b_cols, seed ^ 0xB00Bu);
  auto c = random_matrix(m, n, seed ^ 0xCAFEu);
  const auto want = reference_gemm(trans_a, trans_b, m, n, k, alpha, a, b, beta, c);

  sgemm(trans_a, trans_b, m, n, k, alpha, a.data(), a_cols, b.data(), b_cols, beta, c.data(), n);

  // k multiplications of values in [-1, 1]; scale the tolerance with k.
  const float tol = 1e-5f * static_cast<float>(std::max(k, 1));
  for (int i = 0; i < m * n; ++i) {
    ASSERT_NEAR(c[i], want[i], tol) << "trans_a=" << static_cast<int>(trans_a)
                                    << " trans_b=" << static_cast<int>(trans_b) << " m=" << m
                                    << " n=" << n << " k=" << k << " at " << i;
  }
}

// As expect_sgemm_matches, but every matrix is embedded in a wider
// buffer: lda/ldb/ldc exceed the logical column counts. The slack
// columns of A and B are NaN (a read from them poisons the result) and
// the slack of C is a sentinel the call must leave untouched.
void expect_sgemm_matches_strided(Trans trans_a, Trans trans_b, int m, int n, int k, float alpha,
                                  float beta, std::uint64_t seed) {
  const int a_rows = trans_a == Trans::kNo ? m : k;
  const int a_cols = trans_a == Trans::kNo ? k : m;
  const int b_rows = trans_b == Trans::kNo ? k : n;
  const int b_cols = trans_b == Trans::kNo ? n : k;
  const int lda = a_cols + 3, ldb = b_cols + 5, ldc = n + 7;
  const float kNaN = std::numeric_limits<float>::quiet_NaN();
  const float kSentinel = 512.25f;

  const auto a_dense = random_matrix(a_rows, a_cols, seed);
  const auto b_dense = random_matrix(b_rows, b_cols, seed ^ 0xB00Bu);
  const auto c_dense = random_matrix(m, n, seed ^ 0xCAFEu);
  const auto want = reference_gemm(trans_a, trans_b, m, n, k, alpha, a_dense, b_dense, beta,
                                   c_dense);

  auto embed = [](const std::vector<float>& src, int rows, int cols, int ld, float fill) {
    std::vector<float> dst(static_cast<std::size_t>(rows) * ld, fill);
    for (int r = 0; r < rows; ++r) {
      std::copy_n(src.data() + static_cast<std::size_t>(r) * cols, cols,
                  dst.data() + static_cast<std::size_t>(r) * ld);
    }
    return dst;
  };
  const auto a = embed(a_dense, a_rows, a_cols, lda, kNaN);
  const auto b = embed(b_dense, b_rows, b_cols, ldb, kNaN);
  auto c = embed(c_dense, m, n, ldc, kSentinel);

  sgemm(trans_a, trans_b, m, n, k, alpha, a.data(), lda, b.data(), ldb, beta, c.data(), ldc);

  const float tol = 1e-5f * static_cast<float>(std::max(k, 1));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      ASSERT_NEAR(c[static_cast<std::size_t>(i) * ldc + j], want[i * n + j], tol)
          << "m=" << m << " n=" << n << " k=" << k << " at (" << i << ", " << j << ")";
    }
    for (int j = n; j < ldc; ++j) {
      ASSERT_EQ(c[static_cast<std::size_t>(i) * ldc + j], kSentinel)
          << "wrote past row " << i;
    }
  }
}

TEST(SGemm, TinyShapes) {
  expect_sgemm_matches(Trans::kNo, Trans::kNo, 1, 1, 1, 1.0f, 0.0f, 1);
  expect_sgemm_matches(Trans::kNo, Trans::kNo, 3, 5, 7, 1.0f, 0.0f, 2);
  expect_sgemm_matches(Trans::kNo, Trans::kNo, 7, 3, 5, 1.0f, 0.0f, 3);
}

TEST(SGemm, TileBoundaryShapes) {
  // The kernel walks k in 256-wide slabs; probe one-below / exact /
  // one-above it, and m, n around 64 and 256 (several register strips,
  // each with a tail).
  for (const int m : {63, 64, 65}) {
    expect_sgemm_matches(Trans::kNo, Trans::kNo, m, 19, 11, 1.0f, 0.0f, 10 + m);
  }
  for (const int n : {255, 256, 257}) {
    expect_sgemm_matches(Trans::kNo, Trans::kNo, 5, n, 9, 1.0f, 0.0f, 20 + n);
  }
  for (const int k : {255, 256, 257}) {
    expect_sgemm_matches(Trans::kNo, Trans::kNo, 4, 6, k, 1.0f, 0.0f, 30 + k);
  }
}

TEST(SGemm, TransposedA) {
  expect_sgemm_matches(Trans::kTrans, Trans::kNo, 3, 5, 7, 1.0f, 0.0f, 40);
  expect_sgemm_matches(Trans::kTrans, Trans::kNo, 65, 17, 13, 1.0f, 0.0f, 41);
  expect_sgemm_matches(Trans::kTrans, Trans::kNo, 8, 100, 257, 1.0f, 0.0f, 42);
}

TEST(SGemm, TransposedB) {
  expect_sgemm_matches(Trans::kNo, Trans::kTrans, 3, 5, 7, 1.0f, 0.0f, 50);
  expect_sgemm_matches(Trans::kNo, Trans::kTrans, 17, 65, 13, 1.0f, 0.0f, 51);
  // k straddling the 16-lane vector width.
  for (const int k : {15, 16, 17, 31, 33}) {
    expect_sgemm_matches(Trans::kNo, Trans::kTrans, 4, 6, k, 1.0f, 0.0f, 52 + k);
  }
}

TEST(SGemm, TransposedBoth) {
  expect_sgemm_matches(Trans::kTrans, Trans::kTrans, 3, 5, 7, 1.0f, 0.0f, 60);
  expect_sgemm_matches(Trans::kTrans, Trans::kTrans, 65, 9, 17, 1.0f, 0.0f, 61);
}

TEST(SGemm, AlphaBeta) {
  // beta=1 accumulates (the weight-gradient path), alpha scales.
  expect_sgemm_matches(Trans::kNo, Trans::kNo, 6, 7, 8, 1.0f, 1.0f, 70);
  expect_sgemm_matches(Trans::kNo, Trans::kTrans, 6, 7, 8, 0.5f, 1.0f, 71);
  expect_sgemm_matches(Trans::kTrans, Trans::kNo, 6, 7, 8, 2.0f, -1.0f, 72);
  expect_sgemm_matches(Trans::kNo, Trans::kNo, 6, 7, 8, 0.0f, 2.0f, 73);
}

TEST(SGemm, DegenerateK) {
  // k == 0: C <- beta * C regardless of transpose flags.
  auto c = random_matrix(4, 5, 80);
  const auto orig = c;
  sgemm(Trans::kNo, Trans::kNo, 4, 5, 0, 1.0f, nullptr, 1, nullptr, 5, 0.5f, c.data(), 5);
  for (int i = 0; i < 20; ++i) EXPECT_FLOAT_EQ(c[i], 0.5f * orig[i]);
}

TEST(SGemm, ConvShapedProblem) {
  // The shape conv3d lowers to on SlowFast-sized inputs (scaled down for
  // test time): c_out x (c_in * kt * ks * ks) times that x (ot * oh * ow).
  expect_sgemm_matches(Trans::kNo, Trans::kNo, 8, 14 * 14 * 4, 4 * 3 * 3 * 3, 1.0f, 0.0f, 90);
}

// ---------------------------------------------------------------------------
// Kernel sweep: the packed microkernel against the reference across edge
// shapes, transpose combos, and alpha/beta values.

const Trans kTransModes[] = {Trans::kNo, Trans::kTrans};

TEST(SGemmKernels, MicrokernelTailShapes) {
  // m around the 6-row register block, n around the 16-lane vector width,
  // k around the 256-wide slab — one below, exact, one above, plus 1.
  std::uint64_t seed = 1000;
  for (const int m : {1, 5, 6, 7, 13}) {
    expect_sgemm_matches(Trans::kNo, Trans::kNo, m, 33, 20, 1.0f, 0.0f, ++seed);
  }
  for (const int n : {1, 15, 16, 17, 47}) {
    expect_sgemm_matches(Trans::kNo, Trans::kNo, 9, n, 20, 1.0f, 0.0f, ++seed);
  }
  for (const int k : {1, 255, 256, 257}) {
    expect_sgemm_matches(Trans::kNo, Trans::kNo, 7, 18, k, 1.0f, 0.0f, ++seed);
  }
}

TEST(SGemmKernels, EmptyDimensionsAreNoOps) {
  // m == 0 / n == 0: nothing to compute, C untouched even with beta != 1.
  auto c = random_matrix(4, 5, 1100);
  const auto orig = c;
  sgemm(Trans::kNo, Trans::kNo, 0, 5, 3, 1.0f, nullptr, 3, nullptr, 5, 0.5f, c.data(), 5);
  sgemm(Trans::kNo, Trans::kNo, 4, 0, 3, 1.0f, nullptr, 3, nullptr, 1, 0.5f, c.data(), 5);
  for (int i = 0; i < 20; ++i) ASSERT_EQ(c[i], orig[i]);
}

TEST(SGemmKernels, AllTransposeCombosTimesAlphaBeta) {
  // Full cross: {N, T} x {N, T} x alpha, beta in {0, 1, 2.5}, on a shape
  // with tails on every axis.
  std::uint64_t seed = 1200;
  for (const Trans ta : kTransModes) {
    for (const Trans tb : kTransModes) {
      for (const float alpha : {0.0f, 1.0f, 2.5f}) {
        for (const float beta : {0.0f, 1.0f, 2.5f}) {
          expect_sgemm_matches(ta, tb, 13, 21, 19, alpha, beta, ++seed);
        }
      }
    }
  }
}

TEST(SGemmKernels, StridedLeadingDimensions) {
  // lda/ldb/ldc wider than the logical matrices: NaN slack in A/B must
  // never be read, sentinel slack in C must never be written.
  std::uint64_t seed = 1300;
  for (const Trans ta : kTransModes) {
    for (const Trans tb : kTransModes) {
      expect_sgemm_matches_strided(ta, tb, 13, 37, 29, 1.0f, 0.5f, ++seed);
    }
  }
  // Skinny-m untransposed-B: the B-direct streaming path with a column
  // tail, where full 16-wide strips read straight from the strided B.
  expect_sgemm_matches_strided(Trans::kNo, Trans::kNo, 4, 53, 300, 1.0f, 0.0f, ++seed);
}

TEST(SGemmKernels, ReentrantUnderParallelFor) {
  // GEMM from inside parallel_for jobs: the pool's helping design must
  // not deadlock, and each nested GEMM (with its own arena scopes and
  // nested parallel_for) must produce the same result as when run alone.
  const int m = 18, n = 40, k = 64;
  const int jobs = 8;
  std::vector<std::vector<float>> a(jobs), b(jobs), want(jobs), got(jobs);
  for (int j = 0; j < jobs; ++j) {
    a[j] = random_matrix(m, k, 1600 + j);
    b[j] = random_matrix(k, n, 1700 + j);
    want[j].assign(static_cast<std::size_t>(m) * n, 0.0f);
    got[j].assign(static_cast<std::size_t>(m) * n, 0.0f);
    sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a[j].data(), k, b[j].data(), n, 0.0f,
          want[j].data(), n);
  }
  ThreadPool::global().parallel_for(static_cast<std::size_t>(jobs), [&](std::size_t j) {
    sgemm(Trans::kNo, Trans::kNo, m, n, k, 1.0f, a[j].data(), k, b[j].data(), n, 0.0f,
          got[j].data(), n);
  });
  for (int j = 0; j < jobs; ++j) {
    for (int i = 0; i < m * n; ++i) {
      // Bit-identical: k is never split, so summation order is fixed
      // regardless of which thread ran which tile.
      ASSERT_EQ(got[j][i], want[j][i]) << "job " << j << " at " << i;
    }
  }
}

}  // namespace
}  // namespace safecross::nn
