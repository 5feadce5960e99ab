// Edge-tile codegen: arbitrary GEMM shapes run on the caller's unpadded
// arrays (CodegenOptions::edgeTiles) and must be *exactly* equal to the
// padded §8.1 reference path of the same kernel, on both execution
// engines, with identical ticks and counters on both.  The plan engine
// broadcasts and scales only the live part of an edge tile while the
// tree-walk handles whole tiles, so the sweep covers every element-wise
// op, small tiles, beta and alpha.  Also pins the BLAS beta == 0
// semantics (C is write-only, NaN never propagates) and the host-copy /
// simulated-flop savings the edge path exists for.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "kernel/microkernel.h"
#include "kernel/reference.h"
#include "support/error.h"

namespace sw::core {
namespace {

std::vector<double> randomMatrix(std::int64_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> data(static_cast<std::size_t>(count));
  for (double& v : data) v = dist(rng);
  return data;
}

struct EdgeCase {
  const char* label;
  std::int64_t m, n, k, batch;
  bool transposeA = false;
  bool transposeB = false;
  bool useRma = true;
  /// Large shapes skip the (slower) tree-walk engine; the plan/tree
  /// equivalence is pinned by the smaller cases and plan_equivalence_test.
  bool bothEngines = true;
  FusionKind fusion = FusionKind::kNone;
  bool hideLatency = true;
  std::int64_t tileM = CodegenOptions{}.tileM;
  std::int64_t tileN = CodegenOptions{}.tileN;
  std::int64_t tileK = CodegenOptions{}.tileK;
  double alpha = 1.0;
  /// 0 fills C with NaN: C is write-only then.
  double beta = 1.0;
};

class EdgeTileSweep : public ::testing::TestWithParam<EdgeCase> {};

TEST_P(EdgeTileSweep, UnpaddedRunEqualsPaddedReferenceExactly) {
  const EdgeCase& ec = GetParam();
  CodegenOptions options;
  options.edgeTiles = true;
  options.transposeA = ec.transposeA;
  options.transposeB = ec.transposeB;
  options.batched = ec.batch > 1;
  options.useRma = ec.useRma;
  options.hideLatency = ec.useRma && ec.hideLatency;
  options.fusion = ec.fusion;
  options.tileM = ec.tileM;
  options.tileN = ec.tileN;
  options.tileK = ec.tileK;
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(options);

  const std::int64_t countA = ec.batch * ec.m * ec.k;
  const std::int64_t countB = ec.batch * ec.k * ec.n;
  const std::int64_t countC = ec.batch * ec.m * ec.n;
  std::vector<double> a = randomMatrix(countA, 41);
  std::vector<double> b = randomMatrix(countB, 42);
  const std::vector<double> cInit =
      ec.beta == 0.0
          ? std::vector<double>(static_cast<std::size_t>(countC),
                                std::numeric_limits<double>::quiet_NaN())
          : randomMatrix(countC, 43);
  GemmProblem problem{ec.m, ec.n, ec.k, ec.batch, ec.alpha, ec.beta};

  // Padded reference: same kernel, zero-padded shadow arrays (the clamps
  // never bind at padded sizes).
  FunctionalRunConfig paddedConfig;
  paddedConfig.padMode = PadMode::kPadded;
  std::vector<double> cPadded = cInit;
  rt::RunOutcome padded = runGemmFunctional(kernel, compiler.arch(), problem,
                                            a, b, cPadded, paddedConfig);
  EXPECT_GT(padded.hostCopyBytes, 0);

  FunctionalRunConfig edgeConfig;
  edgeConfig.padMode = PadMode::kEdge;
  std::vector<double> cEdge = cInit;
  rt::RunOutcome edge = runGemmFunctional(kernel, compiler.arch(), problem,
                                          a, b, cEdge, edgeConfig);
  EXPECT_EQ(std::memcmp(cEdge.data(), cPadded.data(),
                        static_cast<std::size_t>(countC) * sizeof(double)),
            0)
      << "plan engine, max |diff| = "
      << kernel::maxAbsDiff(cEdge.data(), cPadded.data(), countC);

  // The whole point of edge tiles: no host pack/unpack copies and strictly
  // fewer simulated micro-kernel flops than the padded run (none of the
  // sweep shapes is a multiple of the padded grid).
  EXPECT_EQ(edge.hostCopyBytes, 0);
  EXPECT_LT(edge.counters.flops, padded.counters.flops);
  // Its broadcasts copy only the live part of the edge tiles.
  if (ec.useRma) {
    EXPECT_LT(edge.hostRmaCopyBytes, padded.hostRmaCopyBytes);
  }

  if (ec.bothEngines) {
    FunctionalRunConfig treeConfig;
    treeConfig.padMode = PadMode::kEdge;
    treeConfig.engine = rt::ExecEngine::kTreeWalk;
    std::vector<double> cTree = cInit;
    rt::RunOutcome tree = runGemmFunctional(kernel, compiler.arch(), problem,
                                            a, b, cTree, treeConfig);
    EXPECT_EQ(std::memcmp(cTree.data(), cPadded.data(),
                          static_cast<std::size_t>(countC) * sizeof(double)),
              0)
        << "tree-walk engine, max |diff| = "
        << kernel::maxAbsDiff(cTree.data(), cPadded.data(), countC);
    // The tree-walk copies and scales whole tiles; the modelled machine
    // is the same.
    EXPECT_EQ(edge.time, tree.time);
    EXPECT_TRUE(edge.counters == tree.counters);
    EXPECT_LE(edge.hostRmaCopyBytes, tree.hostRmaCopyBytes);
  }

  // Plain layouts also have a direct numerical oracle.
  if (!ec.transposeA && !ec.transposeB && ec.batch == 1) {
    std::function<double(double)> prologue;
    std::function<double(double)> epilogue;
    if (ec.fusion == FusionKind::kPrologueQuantize)
      prologue = [](double x) {
        return std::nearbyint(x * kernel::kQuantScale) / kernel::kQuantScale;
      };
    if (ec.fusion == FusionKind::kEpilogueRelu)
      epilogue = [](double x) { return x > 0.0 ? x : 0.0; };
    std::vector<double> expected =
        ec.beta == 0.0 ? std::vector<double>(cInit.size(), 0.0) : cInit;
    kernel::referenceGemm(expected.data(), a.data(), b.data(), ec.m, ec.n,
                          ec.k, ec.alpha, ec.beta, ec.tileK, prologue,
                          epilogue);
    EXPECT_EQ(kernel::maxAbsDiff(cEdge.data(), expected.data(), countC), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArbitraryShapes, EdgeTileSweep,
    ::testing::Values(
        EdgeCase{"s63", 63, 63, 63, 1},
        EdgeCase{"s63_tA", 63, 63, 63, 1, /*tA=*/true},
        EdgeCase{"s63_tB", 63, 63, 63, 1, false, /*tB=*/true},
        EdgeCase{"s63_no_rma", 63, 63, 63, 1, false, false, /*rma=*/false},
        EdgeCase{"s65_tA", 65, 65, 65, 1, /*tA=*/true},
        EdgeCase{"s65_tB", 65, 65, 65, 1, false, /*tB=*/true},
        EdgeCase{"s65_batch2", 65, 65, 65, 2},
        EdgeCase{"s100", 100, 100, 100, 1},
        EdgeCase{"s100_tAtB", 100, 100, 100, 1, true, true},
        EdgeCase{"s100_no_rma", 100, 100, 100, 1, false, false, false},
        EdgeCase{"s100_batch3", 100, 100, 100, 3},
        EdgeCase{"s257", 257, 257, 257, 1},
        EdgeCase{"s257_tA", 257, 257, 257, 1, /*tA=*/true},
        EdgeCase{"s257_no_rma", 257, 257, 257, 1, false, false, false},
        EdgeCase{"mixed_63_65_100", 63, 65, 100, 1},
        EdgeCase{"mixed_257_100_65", 257, 100, 65, 1, false, /*tB=*/true},
        EdgeCase{"s1000", 1000, 1000, 1000, 1, false, false, true,
                 /*bothEngines=*/false},
        // Edge tiles a few rows deep: each element-wise op, both small
        // tile shapes and the RMA pipeline without hiding, at 1^3, 13^3,
        // primes, tile +- 1, 2 tile +- 1 and K < tileK, with beta 0 (NaN
        // C), 0.25 and 1.
        EdgeCase{.label = "s1_beta0", .m = 1, .n = 1, .k = 1, .batch = 1,
                 .beta = 0.0},
        EdgeCase{.label = "s13_alpha_beta", .m = 13, .n = 13, .k = 13,
                 .batch = 1, .alpha = 1.5, .beta = 0.25},
        EdgeCase{.label = "primes_beta0", .m = 67, .n = 71, .k = 73,
                 .batch = 1, .alpha = 1.5, .beta = 0.0},
        EdgeCase{.label = "k_below_tile", .m = 70, .n = 70, .k = 17,
                 .batch = 1, .alpha = 1.5, .beta = 0.25},
        EdgeCase{.label = "s257_63_65_batch2_beta0", .m = 257, .n = 63,
                 .k = 65, .batch = 2, .beta = 0.0},
        EdgeCase{.label = "s13_tA_beta0", .m = 13, .n = 13, .k = 13,
                 .batch = 1, .transposeA = true, .alpha = 1.5, .beta = 0.0},
        EdgeCase{.label = "primes_tB", .m = 101, .n = 97, .k = 103,
                 .batch = 1, .transposeB = true, .alpha = 1.5, .beta = 0.25},
        EdgeCase{.label = "relu_s13", .m = 13, .n = 13, .k = 13, .batch = 1,
                 .fusion = FusionKind::kEpilogueRelu, .alpha = 1.5,
                 .beta = 0.25},
        EdgeCase{.label = "relu_127_129_65_beta0", .m = 127, .n = 129,
                 .k = 65, .batch = 1, .fusion = FusionKind::kEpilogueRelu,
                 .beta = 0.0},
        EdgeCase{.label = "quantize_s1", .m = 1, .n = 1, .k = 1, .batch = 1,
                 .fusion = FusionKind::kPrologueQuantize, .alpha = 1.5,
                 .beta = 0.25},
        EdgeCase{.label = "quantize_primes_beta0", .m = 67, .n = 71,
                 .k = 73, .batch = 1,
                 .fusion = FusionKind::kPrologueQuantize, .beta = 0.0},
        EdgeCase{.label = "no_hiding_s13", .m = 13, .n = 13, .k = 13,
                 .batch = 1, .hideLatency = false, .alpha = 1.5,
                 .beta = 0.25},
        EdgeCase{.label = "no_hiding_127_129_65_beta0", .m = 127, .n = 129,
                 .k = 65, .batch = 1, .hideLatency = false, .beta = 0.0},
        EdgeCase{.label = "no_rma_s1_beta0", .m = 1, .n = 1, .k = 1,
                 .batch = 1, .useRma = false, .beta = 0.0},
        EdgeCase{.label = "tile16_s1_beta0", .m = 1, .n = 1, .k = 1,
                 .batch = 1, .tileM = 16, .tileN = 16, .tileK = 16,
                 .beta = 0.0},
        EdgeCase{.label = "tile16_s17", .m = 17, .n = 17, .k = 17,
                 .batch = 1, .tileM = 16, .tileN = 16, .tileK = 16,
                 .alpha = 1.5, .beta = 0.25},
        EdgeCase{.label = "tile16_31_33_15_relu", .m = 31, .n = 33, .k = 15,
                 .batch = 1, .fusion = FusionKind::kEpilogueRelu,
                 .tileM = 16, .tileN = 16, .tileK = 16, .beta = 0.0},
        EdgeCase{.label = "tile16_s13_tB", .m = 13, .n = 13, .k = 13,
                 .batch = 1, .transposeB = true, .tileM = 16, .tileN = 16,
                 .tileK = 16, .alpha = 1.5, .beta = 0.25},
        EdgeCase{.label = "tile32x16_65_33_17_beta0", .m = 65, .n = 33,
                 .k = 17, .batch = 1, .tileM = 32, .tileN = 16, .tileK = 16,
                 .beta = 0.0},
        EdgeCase{.label = "tile32x16_63_31_33_quantize", .m = 63, .n = 31,
                 .k = 33, .batch = 1,
                 .fusion = FusionKind::kPrologueQuantize, .tileM = 32,
                 .tileN = 16, .tileK = 16, .alpha = 1.5, .beta = 0.25}),
    [](const ::testing::TestParamInfo<EdgeCase>& info) {
      return info.param.label;
    });

TEST(EdgeTiles, BetaZeroNeverReadsC) {
  // BLAS semantics: beta == 0 means C is write-only.  A NaN-filled C must
  // come back finite and equal to alpha*A*B, on both host paths.
  const std::int64_t m = 100, n = 65, k = 63;
  std::vector<double> a = randomMatrix(m * k, 51);
  std::vector<double> b = randomMatrix(k * n, 52);
  std::vector<double> expected(static_cast<std::size_t>(m * n), 0.0);
  kernel::referenceGemm(expected.data(), a.data(), b.data(), m, n, k, 1.0,
                        1.0);

  SwGemmCompiler compiler;
  for (const bool edgeTiles : {false, true}) {
    CodegenOptions options;
    options.edgeTiles = edgeTiles;
    CompiledKernel kernel = compiler.compile(options);
    std::vector<double> c(static_cast<std::size_t>(m * n),
                          std::numeric_limits<double>::quiet_NaN());
    GemmProblem problem{m, n, k, 1, 1.0, /*beta=*/0.0};
    runGemmFunctional(kernel, compiler.arch(), problem, a, b, c);
    for (double v : c) ASSERT_TRUE(std::isfinite(v)) << "edge=" << edgeTiles;
    EXPECT_EQ(kernel::maxAbsDiff(c.data(), expected.data(), m * n), 0.0)
        << "edge=" << edgeTiles;
  }
}

TEST(EdgeTiles, EdgeModeOnPaddedKernelIsRejected) {
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  const std::int64_t m = 64, n = 64, k = 64;
  std::vector<double> a = randomMatrix(m * k, 61);
  std::vector<double> b = randomMatrix(k * n, 62);
  std::vector<double> c = randomMatrix(m * n, 63);
  FunctionalRunConfig config;
  config.padMode = PadMode::kEdge;
  EXPECT_THROW(runGemmFunctional(kernel, compiler.arch(),
                                 GemmProblem{m, n, k, 1}, a, b, c, config),
               sw::InputError);
}

TEST(EdgeTiles, EdgeKernelOnPaddedInputsMatchesPlainKernel) {
  // At padded sizes none of the clamps bind, so the edge-tile kernel must
  // be observationally identical to the plain kernel.
  SwGemmCompiler compiler;
  CodegenOptions edgeOptions;
  edgeOptions.edgeTiles = true;
  CompiledKernel edgeKernel = compiler.compile(edgeOptions);
  CompiledKernel plainKernel = compiler.compile(CodegenOptions{});

  const std::int64_t m = 128, n = 96, k = 64;
  std::vector<double> a = randomMatrix(m * k, 71);
  std::vector<double> b = randomMatrix(k * n, 72);
  const std::vector<double> cInit = randomMatrix(m * n, 73);
  GemmProblem problem{m, n, k, 1, 1.0, 1.0};

  std::vector<double> cEdge = cInit;
  FunctionalRunConfig paddedConfig;
  paddedConfig.padMode = PadMode::kPadded;
  rt::RunOutcome edgeOutcome = runGemmFunctional(
      edgeKernel, compiler.arch(), problem, a, b, cEdge, paddedConfig);
  std::vector<double> cPlain = cInit;
  rt::RunOutcome plainOutcome = runGemmFunctional(
      plainKernel, compiler.arch(), problem, a, b, cPlain);
  EXPECT_EQ(std::memcmp(cEdge.data(), cPlain.data(),
                        static_cast<std::size_t>(m * n) * sizeof(double)),
            0);
  EXPECT_EQ(edgeOutcome.counters.flops, plainOutcome.counters.flops);
  EXPECT_EQ(edgeOutcome.counters.dmaBytes, plainOutcome.counters.dmaBytes);
}

TEST(EdgeTiles, EstimateBindsTrueShape) {
  // The timing estimate of an edge kernel binds the unpadded extents, so a
  // barely-over-the-grid shape costs barely more than the grid itself.
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.edgeTiles = true;
  CompiledKernel kernel = compiler.compile(options);
  CompiledKernel padded = compiler.compile(CodegenOptions{});
  const GemmProblem problem{520, 520, 260, 1};
  rt::RunOutcome edgeEstimate = estimateGemm(kernel, compiler.arch(), problem);
  rt::RunOutcome paddedEstimate =
      estimateGemm(padded, compiler.arch(), problem);
  EXPECT_GT(edgeEstimate.gflops, 0.0);
  EXPECT_LT(edgeEstimate.counters.flops, paddedEstimate.counters.flops);
}

}  // namespace
}  // namespace sw::core
