// Compute kernels executed inside a CPE's SPM.
//
// On the CPE the micro-kernel is a *family* of MR x NR register-blocked
// variants (Exo-style generation), all sharing the vendor contract
// (C m x n += A m x k * B k x n, tiles contiguous row-major in SPM).  The
// tuner co-searches the schedule and the (MR, NR) choice; the timing model
// rates each variant through ArchConfig::microKernelEfficiency, and the
// printers emit its C (microkernel_emit.h).
//
// On the host every variant computes the same bits, so one kernel does
// the math for all of them: a template over the host's vector width W,
// built for AVX-512F (W=8), AVX2 (W=4) and baseline (W=2) and dispatched
// to the widest the host supports, chosen at first use.  Its bit-identity
// invariant is the one every path here keeps: each C element accumulates
// a[i][p] * b[p][j] over p ascending from 0.0, an unfused multiply then
// add, and is added to C exactly once.  The library builds with
// -ffp-contract=off so no ISA contracts that into an FMA.
//
// dgemmNaiveKernel is the straightforward nest the --no-use-asm path
// runs; the simulator charges each at its ArchConfig rate, and tests hold
// them and the reference oracle bit-identical.
#pragma once

#include <cstdint>
#include <vector>

namespace sw::kernel {

/// Shape contract of the vendor micro-kernel.
inline constexpr std::int64_t kMicroM = 64;
inline constexpr std::int64_t kMicroN = 64;
inline constexpr std::int64_t kMicroK = 32;

/// The register-block shape the vendor routine uses; the family default.
inline constexpr int kDefaultMicroMr = 4;
inline constexpr int kDefaultMicroNr = 8;

/// One member of the generated micro-kernel family.
struct MicroKernelVariant {
  int mr = kDefaultMicroMr;
  int nr = kDefaultMicroNr;
};

/// The feasible MR x NR family: register blocks whose accumulator tile,
/// A broadcasts and B row fit the CPE's 32-vector-register file, with NR
/// a multiple of the 4-wide half-vector so the inner loop vectorises.
/// The default (4, 8) is always the first entry.
const std::vector<MicroKernelVariant>& microKernelFamily();

/// Whether (mr, nr) names a member of the generated family.
bool isFeasibleMicroKernelVariant(int mr, int nr);

/// C[m x n] += A[m x k] * B[k x n]; contiguous row-major tiles.  The host
/// micro-kernel for every (MR, NR) variant: the 64x64x32 and 32x32x32
/// contract tiles take a fixed-shape path, other shapes the strided one.
void dgemmMicroKernel(double* c, const double* a, const double* b,
                      std::int64_t m, std::int64_t n, std::int64_t k);

/// The vector ISA dgemmMicroKernel and dgemmEdgeKernel run on this host:
/// "avx512f", "avx2" or "baseline".
const char* hostMicroKernelIsa();

/// Same contract, deliberately naive triple loop (--no-use-asm).
void dgemmNaiveKernel(double* c, const double* a, const double* b,
                      std::int64_t m, std::int64_t n, std::int64_t k);

/// Edge-tile path: C[m x n] += A[m x k] * B[k x n] where each SPM tile
/// keeps its FULL-tile row stride (lda/ldb/ldc) while only the leading
/// m/n/k sub-block holds valid data.  Accumulation order per C element is
/// the same k-ascending single-add contract as the kernels above (it is
/// dgemmMicroKernel's strided path), so a partial tile computed here is
/// bit-identical to the corresponding sub-block of a zero-padded
/// full-tile run.
void dgemmEdgeKernel(double* c, const double* a, const double* b,
                     std::int64_t m, std::int64_t n, std::int64_t k,
                     std::int64_t lda, std::int64_t ldb, std::int64_t ldc);

/// Element-wise SPM-tile operations used by the pipeline and the fusion
/// patterns (§7.3).  A factor of exactly 0.0 zero-fills instead of
/// multiplying: BLAS semantics say beta == 0 must not read C, so NaN or
/// garbage in the destination tile must not propagate through 0 * x.
void tileScale(double* tile, std::int64_t count, double factor);

/// The quantization prologue of §8.4: x -> round(x * kQuantScale) /
/// kQuantScale.  Deterministic and idempotent-friendly for tests.
inline constexpr double kQuantScale = 16.0;
void tileQuantize(double* tile, std::int64_t count);

/// The activation epilogue of §8.4: ReLU.
void tileRelu(double* tile, std::int64_t count);

/// dst[c][r] = src[r][c] for a srcRows x srcCols tile (both contiguous
/// row-major); used by the transposed-operand GEMM variants.
void tileTranspose(double* dst, const double* src, std::int64_t srcRows,
                   std::int64_t srcCols);

/// The same for the leading rows x cols of a source whose rows lie
/// `srcStride` doubles apart, into a target whose rows lie `dstStride`
/// apart: the live part of an edge tile at full-tile strides.
void tileTranspose(double* dst, const double* src, std::int64_t rows,
                   std::int64_t cols, std::int64_t srcStride,
                   std::int64_t dstStride);

}  // namespace sw::kernel
