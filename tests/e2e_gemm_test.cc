// End-to-end correctness: compile the GEMM kernel at every optimisation
// level and execute it functionally on the 64-CPE mesh simulator,
// checking the result against the reference oracle bit-for-bit (the
// pipeline and the oracle share the same accumulation structure).
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
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

struct Variant {
  const char* label;
  bool useAsm;
  bool useRma;
  bool hideLatency;
};

class GemmVariantTest : public ::testing::TestWithParam<Variant> {};

TEST_P(GemmVariantTest, MatchesReference512) {
  const Variant& variant = GetParam();
  CodegenOptions options;
  options.useAsm = variant.useAsm;
  options.useRma = variant.useRma;
  options.hideLatency = variant.hideLatency;

  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(options);

  const std::int64_t m = 512, n = 512, k = 256;
  std::vector<double> a = randomMatrix(m * k, 1);
  std::vector<double> b = randomMatrix(k * n, 2);
  std::vector<double> c = randomMatrix(m * n, 3);
  std::vector<double> expected = c;

  GemmProblem problem{m, n, k, 1, 1.5, 0.5};
  rt::RunOutcome outcome =
      runGemmFunctional(kernel, compiler.arch(), problem, a, b, c);
  EXPECT_GT(outcome.seconds, 0.0);

  kernel::referenceGemm(expected.data(), a.data(), b.data(), m, n, k,
                        problem.alpha, problem.beta);
  EXPECT_EQ(kernel::maxAbsDiff(c.data(), expected.data(), m * n), 0.0)
      << "variant " << variant.label;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, GemmVariantTest,
    ::testing::Values(Variant{"baseline_dma", false, false, false},
                      Variant{"asm", true, false, false},
                      Variant{"asm_rma", true, true, false},
                      Variant{"full", true, true, true}),
    [](const ::testing::TestParamInfo<Variant>& info) {
      return info.param.label;
    });

TEST(E2eGemm, MultiMeshTileAndDeepK) {
  // M=1024, N=512, K=512: two mesh-tile rows, two outer-k iterations, so
  // the steady-state (pipelined) path actually executes.
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});

  const std::int64_t m = 1024, n = 512, k = 512;
  std::vector<double> a = randomMatrix(m * k, 11);
  std::vector<double> b = randomMatrix(k * n, 12);
  std::vector<double> c = randomMatrix(m * n, 13);
  std::vector<double> expected = c;

  GemmProblem problem{m, n, k, 1, 1.0, 1.0};
  runGemmFunctional(kernel, compiler.arch(), problem, a, b, c);
  kernel::referenceGemm(expected.data(), a.data(), b.data(), m, n, k, 1.0,
                        1.0);
  EXPECT_EQ(kernel::maxAbsDiff(c.data(), expected.data(), m * n), 0.0);
}

TEST(E2eGemm, UnpaddedShapeIsZeroPadded) {
  // 300 x 200 x 100 exercises the §8.1 zero-padding path end to end.
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});

  const std::int64_t m = 300, n = 200, k = 100;
  std::vector<double> a = randomMatrix(m * k, 21);
  std::vector<double> b = randomMatrix(k * n, 22);
  std::vector<double> c = randomMatrix(m * n, 23);
  std::vector<double> expected = c;

  GemmProblem problem{m, n, k, 1, 2.0, -1.0};
  runGemmFunctional(kernel, compiler.arch(), problem, a, b, c);
  kernel::referenceGemm(expected.data(), a.data(), b.data(), m, n, k, 2.0,
                        -1.0);
  // Padding splits k-blocks differently only beyond k; within the real
  // extent accumulation order matches, so equality is still exact.
  EXPECT_EQ(kernel::maxAbsDiff(c.data(), expected.data(), m * n), 0.0);
}

TEST(E2eGemm, SpmWorkingSetWithinBudget) {
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  // §6.3: nine buffers, 160 KB of the 256 KB SPM.
  EXPECT_EQ(kernel.program.buffers.size(), 5u);
  EXPECT_EQ(kernel.program.spmBytesUsed(), 160 * 1024);
  EXPECT_LE(kernel.program.spmBytesUsed(), compiler.arch().spmBytes);
}

}  // namespace
}  // namespace sw::core
