// Generality tests: the pipeline, simulator and runner are parameterised
// by the ArchConfig — nothing is hard-coded to the 8x8 mesh.  A 4x4 mesh
// with strip factor 4 must produce bit-exact results too, and combined
// option sets (batched + fused + transposed) must compose.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "kernel/microkernel.h"
#include "kernel/reference.h"

namespace sw::core {
namespace {

std::vector<double> randomMatrix(std::int64_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> data(static_cast<std::size_t>(count));
  for (double& v : data) v = dist(rng);
  return data;
}

TEST(MeshGenerality, FourByFourMeshRunsBitExact) {
  sunway::ArchConfig arch;
  arch.meshRows = 4;
  arch.meshCols = 4;
  CodegenOptions options;
  options.stripFactor = 4;  // §3.2: strip factor = mesh width

  SwGemmCompiler compiler(arch);
  CompiledKernel kernel = compiler.compile(options);
  // Mesh tile is 256x256; K unit is 4*32 = 128.
  EXPECT_NE(kernel.cpeSource.find("M/256"), std::string::npos);

  const std::int64_t m = 256, n = 256, k = 128;
  std::vector<double> a = randomMatrix(m * k, 1);
  std::vector<double> b = randomMatrix(k * n, 2);
  std::vector<double> c = randomMatrix(m * n, 3);
  std::vector<double> expected = c;

  GemmProblem problem{m, n, k, 1, 1.0, 1.0};
  rt::RunOutcome outcome =
      runGemmFunctional(kernel, arch, problem, a, b, c);
  kernel::referenceGemm(expected.data(), a.data(), b.data(), m, n, k, 1.0,
                        1.0);
  EXPECT_EQ(kernel::maxAbsDiff(c.data(), expected.data(), m * n), 0.0);
  // 16 CPEs x (k/128) outer x 4 rounds of micro-kernels.
  EXPECT_EQ(outcome.counters.microKernelCalls, 16 * (k / 128) * 4);
}

TEST(MeshGenerality, MismatchedStripFactorIsRejected) {
  sunway::ArchConfig arch;  // 8x8
  CodegenOptions options;
  options.stripFactor = 4;
  SwGemmCompiler compiler(arch);
  EXPECT_THROW(compiler.compile(options), sw::Error);
}

TEST(MeshGenerality, BatchedFusedTransposedCompose) {
  // All orthogonal options at once: batched, epilogue fusion, A^T.
  CodegenOptions options;
  options.batched = true;
  options.fusion = FusionKind::kEpilogueRelu;
  options.transposeA = true;
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(options);

  const std::int64_t batch = 2, m = 512, n = 512, k = 256;
  std::vector<double> a = randomMatrix(batch * m * k, 11);  // batch of K x M
  std::vector<double> b = randomMatrix(batch * k * n, 12);
  std::vector<double> c = randomMatrix(batch * m * n, 13);
  std::vector<double> expected = c;

  GemmProblem problem{m, n, k, batch, 1.5, 0.25};
  runGemmFunctional(kernel, compiler.arch(), problem, a, b, c);

  for (std::int64_t bi = 0; bi < batch; ++bi) {
    std::vector<double> aOp(static_cast<std::size_t>(m * k));
    kernel::tileTranspose(aOp.data(), a.data() + bi * k * m, k, m);
    kernel::referenceGemm(expected.data() + bi * m * n, aOp.data(),
                          b.data() + bi * k * n, m, n, k, problem.alpha,
                          problem.beta, 32, nullptr,
                          [](double v) { return v > 0.0 ? v : 0.0; });
  }
  EXPECT_EQ(kernel::maxAbsDiff(c.data(), expected.data(), batch * m * n),
            0.0);
}

TEST(MeshGenerality, PrologueAndBatchCompose) {
  CodegenOptions options;
  options.batched = true;
  options.fusion = FusionKind::kPrologueQuantize;
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(options);

  const std::int64_t batch = 2, m = 512, n = 512, k = 256;
  std::vector<double> a = randomMatrix(batch * m * k, 21);
  std::vector<double> b = randomMatrix(batch * k * n, 22);
  std::vector<double> c(static_cast<std::size_t>(batch * m * n), 0.0);
  std::vector<double> expected = c;

  GemmProblem problem{m, n, k, batch, 1.0, 0.0};
  runGemmFunctional(kernel, compiler.arch(), problem, a, b, c);
  for (std::int64_t bi = 0; bi < batch; ++bi)
    kernel::referenceGemm(
        expected.data() + bi * m * n, a.data() + bi * m * k,
        b.data() + bi * k * n, m, n, k, 1.0, 0.0, 32, [](double v) {
          return std::nearbyint(v * kernel::kQuantScale) /
                 kernel::kQuantScale;
        });
  EXPECT_EQ(kernel::maxAbsDiff(c.data(), expected.data(), batch * m * n),
            0.0);
}

TEST(MeshGenerality, MeshTimingAgreesOnSmallMesh) {
  // The symmetric estimator's assumptions hold on other mesh sizes too.
  sunway::ArchConfig arch;
  arch.meshRows = 4;
  arch.meshCols = 4;
  CodegenOptions options;
  options.stripFactor = 4;
  SwGemmCompiler compiler(arch);
  CompiledKernel kernel = compiler.compile(options);

  sunway::MeshSimulator mesh(arch, /*functional=*/false);
  auto params = rt::bindParams(kernel.program, 512, 512, 256, 1);
  const double flops = rt::gemmFlops(512, 512, 256);
  rt::RunOutcome simulated =
      rt::runOnMesh(mesh, kernel.program, params, rt::ExecScalars{}, flops);
  rt::RunOutcome estimated =
      rt::estimateTiming(arch, kernel.program, params, flops);
  EXPECT_NEAR(estimated.seconds, simulated.seconds, 0.03 * simulated.seconds);
}

}  // namespace
}  // namespace sw::core
