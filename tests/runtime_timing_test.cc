// Timing-model tests: the sequential symmetric estimator must agree with
// the 64-CPE mesh simulator's logical clocks, and the model must
// reproduce the qualitative relationships of §6/§8.1 (latency hiding wins,
// RMA slashes DMA traffic 8x, overlap count grows with K).
#include <gtest/gtest.h>

#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "runtime/executor.h"
#include "sunway/mesh.h"

namespace sw::core {
namespace {

rt::RunOutcome runThreadedTiming(const CompiledKernel& kernel,
                                 const sunway::ArchConfig& arch,
                                 std::int64_t m, std::int64_t n,
                                 std::int64_t k) {
  sunway::MeshSimulator mesh(arch, /*functional=*/false);
  auto params = rt::bindParams(kernel.program, m, n, k, 1);
  return rt::runOnMesh(mesh, kernel.program, params, rt::ExecScalars{},
                       rt::gemmFlops(m, n, k));
}

class TimingAgreement : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(TimingAgreement, EstimatorMatchesThreadedMesh) {
  const std::int64_t s = GetParam();
  SwGemmCompiler compiler;
  for (bool hide : {false, true}) {
    CodegenOptions options;
    options.hideLatency = hide;
    CompiledKernel kernel = compiler.compile(options);
    rt::RunOutcome threaded =
        runThreadedTiming(kernel, compiler.arch(), s, s, s);
    rt::RunOutcome estimated =
        estimateGemm(kernel, compiler.arch(), GemmProblem{s, s, s});
    // The estimator charges RMA issue overhead every round instead of one
    // round in eight; keep the bound tight but not exact.
    EXPECT_NEAR(estimated.seconds, threaded.seconds,
                0.02 * threaded.seconds)
        << "shape " << s << " hide=" << hide;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, TimingAgreement,
                         ::testing::Values<std::int64_t>(512, 1024, 2048));

TEST(TimingModel, LatencyHidingAlwaysHelps) {
  SwGemmCompiler compiler;
  CodegenOptions withHiding;
  CodegenOptions without;
  without.hideLatency = false;
  CompiledKernel fast = compiler.compile(withHiding);
  CompiledKernel slow = compiler.compile(without);
  for (std::int64_t s : {512, 1024, 4096, 8192}) {
    const double tFast =
        estimateGemm(fast, compiler.arch(), GemmProblem{s, s, s}).seconds;
    const double tSlow =
        estimateGemm(slow, compiler.arch(), GemmProblem{s, s, s}).seconds;
    EXPECT_LT(tFast, tSlow) << s;
  }
}

TEST(TimingModel, HidingBenefitGrowsWithK) {
  // §8.1: the number of DMA overlaps is ceil(K/256) - 1, so small K
  // benefits less from latency hiding.
  SwGemmCompiler compiler;
  CodegenOptions withHiding;
  CodegenOptions without;
  without.hideLatency = false;
  CompiledKernel fast = compiler.compile(withHiding);
  CompiledKernel slow = compiler.compile(without);
  auto speedup = [&](std::int64_t k) {
    const GemmProblem p{4096, 4096, k};
    return estimateGemm(slow, compiler.arch(), p).seconds /
           estimateGemm(fast, compiler.arch(), p).seconds;
  };
  EXPECT_LT(speedup(256), speedup(2048));
  EXPECT_LT(speedup(2048), speedup(16384));
}

TEST(TimingModel, RmaCutsDmaTrafficEightfold) {
  // Without RMA every CPE in a mesh row/column fetches the same input tile
  // (§3.2): the A/B DMA volume is exactly 8x the RMA version's.
  SwGemmCompiler compiler;
  CodegenOptions rmaOpts;
  rmaOpts.hideLatency = false;
  CodegenOptions noRma;
  noRma.useRma = false;
  noRma.hideLatency = false;
  CompiledKernel withRma = compiler.compile(rmaOpts);
  CompiledKernel without = compiler.compile(noRma);

  const std::int64_t s = 1024;
  auto bytes = [&](const CompiledKernel& kernel) {
    sunway::MeshSimulator mesh(compiler.arch(), /*functional=*/false);
    auto params = rt::bindParams(kernel.program, s, s, s, 1);
    return rt::runOnMesh(mesh, kernel.program, params, rt::ExecScalars{},
                         rt::gemmFlops(s, s, s))
        .counters.dmaBytes;
  };
  const std::int64_t cBytes =
      2 * (s / 512) * (s / 512) * 64 * 512 * 512 / 64 * 8;  // getC+putC total
  const std::int64_t abWith = bytes(withRma) - cBytes;
  const std::int64_t abWithout = bytes(without) - cBytes;
  EXPECT_EQ(abWithout, 8 * abWith);
}

TEST(TimingModel, BreakdownMatchesPaperOrdering) {
  // Fig.13's four bars must order v1 < v2 < v3 < v4 with factors in the
  // right ballpark (paper: 2.83x, 4.38x, 1.76x on average).
  SwGemmCompiler compiler;
  auto gflops = [&](bool useAsm, bool useRma, bool hide, std::int64_t s) {
    CodegenOptions options;
    options.useAsm = useAsm;
    options.useRma = useRma;
    options.hideLatency = hide;
    CompiledKernel kernel = compiler.compile(options);
    return estimateGemm(kernel, compiler.arch(), GemmProblem{s, s, s})
        .gflops;
  };
  const std::int64_t s = 8192;
  const double v1 = gflops(false, false, false, s);
  const double v2 = gflops(true, false, false, s);
  const double v3 = gflops(true, true, false, s);
  const double v4 = gflops(true, true, true, s);
  EXPECT_GT(v2 / v1, 2.0);
  EXPECT_LT(v2 / v1, 4.0);
  EXPECT_GT(v3 / v2, 3.3);
  EXPECT_LT(v3 / v2, 5.5);
  EXPECT_GT(v4 / v3, 1.4);
  EXPECT_LT(v4 / v3, 2.4);
  // §8.1: the best configurations reach ~90% of the theoretical peak.
  EXPECT_GT(v4 / (compiler.arch().peakFlops() / 1e9), 0.80);
}

TEST(TimingModel, SpawnOverheadCountsOnce) {
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  const rt::RunOutcome outcome =
      estimateGemm(kernel, compiler.arch(), GemmProblem{512, 512, 256});
  EXPECT_GT(outcome.seconds, compiler.arch().spawnOverheadSeconds);
}

TEST(TimingModel, CountersAreConsistent) {
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  const std::int64_t s = 1024;
  sunway::MeshSimulator mesh(compiler.arch(), /*functional=*/false);
  auto params = rt::bindParams(kernel.program, s, s, s, 1);
  auto outcome = rt::runOnMesh(mesh, kernel.program, params,
                               rt::ExecScalars{}, rt::gemmFlops(s, s, s));
  // 64 CPEs x (s/512)^2 mesh tiles x (s/256 outer) x 8 rounds.
  const std::int64_t meshTiles = (s / 512) * (s / 512);
  EXPECT_EQ(outcome.counters.microKernelCalls,
            64 * meshTiles * (s / 256) * 8);
  // Each CPE sends one row and one column broadcast per outer-k iteration.
  EXPECT_EQ(outcome.counters.rmaBroadcastsSent,
            2 * 64 * meshTiles * (s / 256));
}

}  // namespace
}  // namespace sw::core
