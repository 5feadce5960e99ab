#include "kernel/microkernel.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "kernel/microkernel_isa.h"

namespace sw::kernel {

namespace {

/// W doubles in one host vector register, and the matching lane mask.
template <int W>
using Vec [[gnu::vector_size(W * sizeof(double))]] = double;
template <int W>
using LaneMask [[gnu::vector_size(W * sizeof(double))]] = std::int64_t;

// The loops over register-block rows, vectors and lanes have at most 8
// trips and must unroll fully, or the accumulators stay in memory.

/// One R x (V*W) register block: C[R x V*W] += A[R x k] * B[k x V*W] with
/// row strides lda/ldb/ldc.  Every accumulator lane starts at +0.0, takes
/// an unfused a*b then + for p ascending, and is added to C once: the
/// per-element order of dgemmNaiveKernel, so the bits are the same.  The
/// first `skip` lanes are computed but not stored; rowPanel uses them for
/// a last block shifted left over columns an earlier block already wrote.
template <int W, int R, int V>
[[gnu::always_inline]] inline void block(double* c, const double* a,
                                         const double* b, std::int64_t k,
                                         std::int64_t lda, std::int64_t ldb,
                                         std::int64_t ldc, int skip) {
  Vec<W> acc[R][V] = {};
  for (std::int64_t p = 0; p < k; ++p) {
    Vec<W> bv[V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v)
      std::memcpy(&bv[v], b + p * ldb + v * W, sizeof bv[v]);
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      const double av = a[r * lda + p];
#pragma GCC unroll 8
      for (int v = 0; v < V; ++v) acc[r][v] += av * bv[v];
    }
  }
  LaneMask<W> lane = {};
#pragma GCC unroll 8
  for (int l = 0; l < W; ++l) lane[l] = l;
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r)
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
      double* cp = c + r * ldc + v * W;
      Vec<W> cv;
      std::memcpy(&cv, cp, sizeof cv);
      Vec<W> sum = cv + acc[r][v];
      if (skip != 0) sum = lane >= skip ? sum : cv;
      std::memcpy(cp, &sum, sizeof sum);
    }
}

/// R rows of C across all n columns: 2W-wide blocks, then one W-wide
/// block, then the ragged last columns as a W-wide block that ends at
/// column n.  A row narrower than W has no vector block and runs scalar.
template <int W, int R>
[[gnu::always_inline]] inline void rowPanel(double* c, const double* a,
                                            const double* b, std::int64_t n,
                                            std::int64_t k, std::int64_t lda,
                                            std::int64_t ldb,
                                            std::int64_t ldc) {
  if (n < W) {
    for (int r = 0; r < R; ++r)
      for (std::int64_t j = 0; j < n; ++j) {
        double acc = 0.0;
        for (std::int64_t p = 0; p < k; ++p)
          acc += a[r * lda + p] * b[p * ldb + j];
        c[r * ldc + j] += acc;
      }
    return;
  }
  std::int64_t j = 0;
  for (; j + 2 * W <= n; j += 2 * W)
    block<W, R, 2>(c + j, a, b + j, k, lda, ldb, ldc, 0);
  if (j + W <= n) {
    block<W, R, 1>(c + j, a, b + j, k, lda, ldb, ldc, 0);
    j += W;
  }
  if (j < n)
    block<W, R, 1>(c + n - W, a, b + n - W, k, lda, ldb, ldc,
                   static_cast<int>(W - (n - j)));
}

/// The strided path: 4-row panels, then single rows.
template <int W>
[[gnu::always_inline]] inline void strided(double* c, const double* a,
                                           const double* b, std::int64_t m,
                                           std::int64_t n, std::int64_t k,
                                           std::int64_t lda, std::int64_t ldb,
                                           std::int64_t ldc) {
  const std::int64_t panelRows = m - m % 4;
  for (std::int64_t i = 0; i < panelRows; i += 4)
    rowPanel<W, 4>(c + i * ldc, a + i * lda, b, n, k, lda, ldb, ldc);
  for (std::int64_t i = panelRows; i < m; ++i)
    rowPanel<W, 1>(c + i * ldc, a + i * lda, b, n, k, lda, ldb, ldc);
}

/// The kernel at vector width W.  The two contiguous contract tiles call
/// the strided path with literal extents, which compiles to a fixed-shape
/// nest of 4 x 2W blocks with no tail code: 64 and 32 are multiples of 4
/// and of 2W for every W below.
template <int W>
[[gnu::always_inline]] inline void kernelAt(double* c, const double* a,
                                            const double* b, std::int64_t m,
                                            std::int64_t n, std::int64_t k,
                                            std::int64_t lda, std::int64_t ldb,
                                            std::int64_t ldc) {
  const bool contiguous = lda == k && ldb == n && ldc == n;
  if (contiguous && m == kMicroM && n == kMicroN && k == kMicroK)
    strided<W>(c, a, b, kMicroM, kMicroN, kMicroK, kMicroK, kMicroN,
               kMicroN);
  else if (contiguous && m == 32 && n == 32 && k == 32)
    strided<W>(c, a, b, 32, 32, 32, 32, 32, 32);
  else
    strided<W>(c, a, b, m, n, k, lda, ldb, ldc);
}

#if defined(__x86_64__) || defined(__i386__)
[[gnu::target("avx512f")]] void gemmAvx512f(double* c, const double* a,
                                            const double* b, std::int64_t m,
                                            std::int64_t n, std::int64_t k,
                                            std::int64_t lda,
                                            std::int64_t ldb,
                                            std::int64_t ldc) {
  kernelAt<8>(c, a, b, m, n, k, lda, ldb, ldc);
}

[[gnu::target("avx2")]] void gemmAvx2(double* c, const double* a,
                                      const double* b, std::int64_t m,
                                      std::int64_t n, std::int64_t k,
                                      std::int64_t lda, std::int64_t ldb,
                                      std::int64_t ldc) {
  kernelAt<4>(c, a, b, m, n, k, lda, ldb, ldc);
}
#endif

void gemmBaseline(double* c, const double* a, const double* b,
                  std::int64_t m, std::int64_t n, std::int64_t k,
                  std::int64_t lda, std::int64_t ldb, std::int64_t ldc) {
  kernelAt<2>(c, a, b, m, n, k, lda, ldb, ldc);
}

/// Widest first; the last entry runs on every host.
constexpr detail::MicroKernelIsa kIsas[] = {
#if defined(__x86_64__) || defined(__i386__)
    {"avx512f", 8, [] { return __builtin_cpu_supports("avx512f") != 0; },
     gemmAvx512f},
    {"avx2", 4, [] { return __builtin_cpu_supports("avx2") != 0; }, gemmAvx2},
#endif
    {"baseline", 2, [] { return true; }, gemmBaseline},
};

/// The widest instantiation the host supports, chosen at first use.
const detail::MicroKernelIsa& hostIsa() {
  static const detail::MicroKernelIsa& isa =
      *std::find_if(std::begin(kIsas), std::end(kIsas),
                    [](const detail::MicroKernelIsa& candidate) {
                      return candidate.supported();
                    });
  return isa;
}

}  // namespace

namespace detail {

std::span<const MicroKernelIsa> microKernelIsas() { return kIsas; }

}  // namespace detail

const std::vector<MicroKernelVariant>& microKernelFamily() {
  // Every member divides the 64x64 and 32x32 contract tiles.
  static const std::vector<MicroKernelVariant> family = {
      {4, 8}, {2, 8}, {2, 16}, {4, 4}, {4, 16}, {8, 4}, {8, 8}};
  return family;
}

bool isFeasibleMicroKernelVariant(int mr, int nr) {
  return std::any_of(microKernelFamily().begin(), microKernelFamily().end(),
                     [&](const MicroKernelVariant& v) {
                       return v.mr == mr && v.nr == nr;
                     });
}

const char* hostMicroKernelIsa() { return hostIsa().name; }

void dgemmMicroKernel(double* c, const double* a, const double* b,
                      std::int64_t m, std::int64_t n, std::int64_t k) {
  hostIsa().gemm(c, a, b, m, n, k, k, n, n);
}

void dgemmNaiveKernel(double* c, const double* a, const double* b,
                      std::int64_t m, std::int64_t n, std::int64_t k) {
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      c[i * n + j] += acc;
    }
}

void dgemmEdgeKernel(double* c, const double* a, const double* b,
                     std::int64_t m, std::int64_t n, std::int64_t k,
                     std::int64_t lda, std::int64_t ldb, std::int64_t ldc) {
  hostIsa().gemm(c, a, b, m, n, k, lda, ldb, ldc);
}

void tileScale(double* tile, std::int64_t count, double factor) {
  if (factor == 0.0) {
    for (std::int64_t i = 0; i < count; ++i) tile[i] = 0.0;
    return;
  }
  for (std::int64_t i = 0; i < count; ++i) tile[i] *= factor;
}

void tileQuantize(double* tile, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i)
    tile[i] = std::nearbyint(tile[i] * kQuantScale) / kQuantScale;
}

void tileRelu(double* tile, std::int64_t count) {
  for (std::int64_t i = 0; i < count; ++i)
    tile[i] = tile[i] > 0.0 ? tile[i] : 0.0;
}

void tileTranspose(double* dst, const double* src, std::int64_t srcRows,
                   std::int64_t srcCols) {
  tileTranspose(dst, src, srcRows, srcCols, srcCols, srcRows);
}

void tileTranspose(double* dst, const double* src, std::int64_t rows,
                   std::int64_t cols, std::int64_t srcStride,
                   std::int64_t dstStride) {
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c)
      dst[c * dstStride + r] = src[r * srcStride + c];
}

}  // namespace sw::kernel
