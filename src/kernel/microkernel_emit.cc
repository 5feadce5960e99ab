#include "kernel/microkernel_emit.h"

#include "support/format.h"

namespace sw::kernel {

std::string microKernelFunctionName(int mr, int nr) {
  return strCat("dgemm_mk_", mr, "x", nr);
}

namespace {

/// One MR x NR register block with runtime bounds, shared by the fixed and
/// generic paths (the per-element accumulation order of dgemmMicroKernel
/// keeps the emitted kernel bit-compatible with the interpreter engines).
std::string emitRegisterBlock(int mr, int nr, const std::string& name) {
  std::string out;
  out += strCat("static void ", name,
                "_rb(double *restrict c, const double *restrict a,\n"
                "    const double *restrict b, long n, long k, long ldb) {\n");
  out += strCat("  enum { MR = ", mr, ", NR = ", nr, " };\n");
  out +=
      "  double acc[MR][NR];\n"
      "  int bi, bj;\n"
      "  long p;\n"
      "  for (bi = 0; bi < MR; ++bi)\n"
      "    for (bj = 0; bj < NR; ++bj) acc[bi][bj] = 0.0;\n"
      "  for (p = 0; p < k; ++p) {\n"
      "    const double *restrict brow = b + p * ldb;\n"
      "    for (bi = 0; bi < MR; ++bi) {\n"
      "      const double av = a[bi * k + p];\n"
      "      for (bj = 0; bj < NR; ++bj) acc[bi][bj] += av * brow[bj];\n"
      "    }\n"
      "  }\n"
      "  for (bi = 0; bi < MR; ++bi)\n"
      "    for (bj = 0; bj < NR; ++bj) c[bi * n + bj] += acc[bi][bj];\n"
      "}\n";
  return out;
}

/// Fully static-shape path for one contract tile: every trip count is a
/// literal, so the nest unrolls and vectorises, and B is packed once per
/// NR-column panel into a contiguous scratch reused by all row blocks
/// (packing copies values verbatim so the accumulation result is
/// unchanged).
std::string emitFixedShape(int mr, int nr, const std::string& name,
                           const std::string& suffix, int m, int n, int k) {
  std::string out;
  out += strCat("static void ", name, suffix,
                "(double *restrict c, const double *restrict a,\n"
                "    const double *restrict b) {\n");
  out += strCat("  enum { M = ", m, ", N = ", n, ", K = ", k, ", NR = ", nr,
                ", MR = ", mr, " };\n");
  out +=
      "  double bpack[K * NR];\n"
      "  int i, j, bj;\n"
      "  long p;\n"
      "  for (j = 0; j < N; j += NR) {\n"
      "    for (p = 0; p < K; ++p)\n"
      "      for (bj = 0; bj < NR; ++bj)\n"
      "        bpack[p * NR + bj] = b[p * N + j + bj];\n"
      "    for (i = 0; i < M; i += MR)\n";
  out += strCat("      ", name,
                "_rb(c + i * N + j, a + i * K, bpack, N, K, NR);\n");
  out +=
      "  }\n"
      "}\n";
  return out;
}

}  // namespace

std::string emitMicroKernelC(int mr, int nr, const std::string& name,
                             bool asStatic) {
  // The contract tile (64x64x32) and the half tile (32x32x32) get fully
  // unrolled packed-B fast paths when the variant divides them exactly —
  // true for every family member, but guarded so arbitrary (mr, nr)
  // requests still emit warning-clean C.
  const bool fixedPaths =
      64 % mr == 0 && 64 % nr == 0 && 32 % mr == 0 && 32 % nr == 0;
  std::string out;
  out += strCat("/* generated ", mr, "x", nr,
                " register-blocked micro-kernel: C[m x n] += A[m x k] * "
                "B[k x n],\n"
                " * contiguous row-major tiles, k-ascending accumulation, "
                "one add per C element.\n"
                " * Contract tiles take a static-shape packed-B path; other "
                "shapes use the\n"
                " * generic blocked loop.  All paths accumulate in the same "
                "order. */\n");
  out += emitRegisterBlock(mr, nr, name);
  if (fixedPaths) {
    out += emitFixedShape(mr, nr, name, "_t64", 64, 64, 32);
    out += emitFixedShape(mr, nr, name, "_t32", 32, 32, 32);
  }
  out += strCat(asStatic ? "static " : "", "void ", name,
                "(double *restrict c, const double *restrict a,\n"
                "    const double *restrict b, long m, long n, long k) {\n");
  out += strCat("  enum { MR = ", mr, ", NR = ", nr, " };\n");
  out += "  long i = 0;\n";
  if (fixedPaths) {
    out += strCat("  if (m == 64 && n == 64 && k == 32) { ", name,
                  "_t64(c, a, b); return; }\n");
    out += strCat("  if (m == 32 && n == 32 && k == 32) { ", name,
                  "_t32(c, a, b); return; }\n");
  }
  out +=
      "  for (; i + MR <= m; i += MR) {\n"
      "    long j = 0;\n"
      "    for (; j + NR <= n; j += NR)\n";
  out += strCat("      ", name, "_rb(c + i * n + j, a + i * k, b + j, n, k, n);\n");
  out +=
      "    /* ragged right edge (never hit by the 64x64x32 contract) */\n"
      "    for (; j < n; ++j) {\n"
      "      long ii;\n"
      "      for (ii = i; ii < i + MR; ++ii) {\n"
      "        double acc = 0.0;\n"
      "        long p;\n"
      "        for (p = 0; p < k; ++p) acc += a[ii * k + p] * b[p * n + j];\n"
      "        c[ii * n + j] += acc;\n"
      "      }\n"
      "    }\n"
      "  }\n"
      "  for (; i < m; ++i) {\n"
      "    long j;\n"
      "    for (j = 0; j < n; ++j) {\n"
      "      double acc = 0.0;\n"
      "      long p;\n"
      "      for (p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];\n"
      "      c[i * n + j] += acc;\n"
      "    }\n"
      "  }\n"
      "}\n";
  return out;
}

}  // namespace sw::kernel
