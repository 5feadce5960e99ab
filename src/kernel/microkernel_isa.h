// The per-ISA instantiations of the host micro-kernel.  Internal to
// src/kernel and its tests: callers use dgemmMicroKernel and
// dgemmEdgeKernel (microkernel.h), which run the widest instantiation the
// host supports.  Tests reach every instantiation here to check that each
// computes the same bits as dgemmNaiveKernel.
#pragma once

#include <cstdint>
#include <span>

namespace sw::kernel::detail {

/// C[m x n] += A[m x k] * B[k x n] with row strides lda/ldb/ldc.
using StridedGemmFn = void (*)(double* c, const double* a, const double* b,
                               std::int64_t m, std::int64_t n, std::int64_t k,
                               std::int64_t lda, std::int64_t ldb,
                               std::int64_t ldc);

struct MicroKernelIsa {
  const char* name;  // "avx512f", "avx2" or "baseline"
  int width;         // doubles per vector register
  bool (*supported)();
  StridedGemmFn gemm;
};

/// Every instantiation built into this binary, widest first.  Off x86 only
/// "baseline" is built; it runs on every host.
std::span<const MicroKernelIsa> microKernelIsas();

}  // namespace sw::kernel::detail
