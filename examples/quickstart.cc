// Quickstart: the paper's §2.3 user experience end to end.
//
// Write the naive 3-loop DGEMM in C, hand it to the compiler, and get a
// high-performance SW26010Pro kernel: here we compile it, execute it
// functionally on the simulated 8x8 CPE mesh, verify the numerics against
// the reference, and report the modelled performance for a paper-scale
// shape.
#include <cstdio>
#include <random>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "kernel/reference.h"

namespace {

constexpr const char* kUserProgram = R"(
void gemm(long M, long N, long K, double alpha, double beta,
          double A[M][K], double B[K][N], double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      C[i][j] = beta * C[i][j];
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
}
)";

std::vector<double> randomMatrix(std::int64_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> data(static_cast<std::size_t>(count));
  for (double& v : data) v = dist(rng);
  return data;
}

}  // namespace

int main() {
  using namespace sw::core;

  std::printf("== swcodegen quickstart ==\n\n");
  std::printf("Input program (plain C):\n%s\n", kUserProgram);

  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compileSource(kUserProgram);
  std::printf("Compiled: %zu-op CPE program, %lld bytes of SPM "
              "(9 buffers, double-buffered)\n\n",
              sw::codegen::countOps(kernel.program.body),
              static_cast<long long>(kernel.program.spmBytesUsed()));

  // --- functional run on the 64-CPE mesh simulator ----------------------
  const std::int64_t m = 512, n = 512, k = 512;
  std::vector<double> a = randomMatrix(m * k, 1);
  std::vector<double> b = randomMatrix(k * n, 2);
  std::vector<double> c = randomMatrix(m * n, 3);
  std::vector<double> expected = c;

  GemmProblem problem{m, n, k, 1, /*alpha=*/1.0, /*beta=*/1.0};
  sw::rt::RunOutcome run =
      runGemmFunctional(kernel, compiler.arch(), problem, a, b, c);

  sw::kernel::referenceGemm(expected.data(), a.data(), b.data(), m, n, k,
                            1.0, 1.0);
  const double err =
      sw::kernel::maxAbsDiff(c.data(), expected.data(), m * n);
  std::printf("Functional run %ldx%ldx%ld on the simulated mesh: "
              "max |error| = %g (%s)\n",
              (long)m, (long)n, (long)k, err,
              err == 0.0 ? "bit-exact" : "MISMATCH");
  std::printf("  simulated time %.3f ms, %.1f model GFLOPS, %lld DMA "
              "messages, %lld broadcasts\n\n",
              run.seconds * 1e3, run.gflops,
              static_cast<long long>(run.counters.dmaMessages),
              static_cast<long long>(run.counters.rmaBroadcastsSent));

  // --- paper-scale timing estimate ---------------------------------------
  for (std::int64_t s : {4096L, 15360L}) {
    sw::rt::RunOutcome estimate =
        estimateGemm(kernel, compiler.arch(), GemmProblem{s, s, s});
    std::printf("Estimated %ld^3: %.1f GFLOPS (%.1f%% of the %.1f-GFLOPS "
                "model peak)\n",
                (long)s, estimate.gflops,
                100.0 * estimate.gflops / (compiler.arch().peakFlops() / 1e9),
                compiler.arch().peakFlops() / 1e9);
  }

  std::printf("\nGenerated CPE source: %zu bytes; MPE wrapper: %zu bytes "
              "(see inspect_codegen for a full dump)\n",
              kernel.cpeSource.size(), kernel.mpeSource.size());
  return err == 0.0 ? 0 : 1;
}
