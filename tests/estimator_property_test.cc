// Property tests of the performance model across wide parameter sweeps:
// physical sanity (never above peak, monotone in hardware capability),
// paper-shaped relationships (variant ordering holds everywhere, batch
// scaling is sublinear-overhead, a batch needs a batched kernel), and
// estimator determinism.
#include <gtest/gtest.h>

#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "core/sharded_gemm.h"
#include "support/error.h"

namespace sw::core {
namespace {

struct VariantShape {
  bool useAsm, useRma, hide;
  std::int64_t m, n, k;
};

class PeakBound : public ::testing::TestWithParam<VariantShape> {};

TEST_P(PeakBound, NeverExceedsPeakAndVariantOrderHolds) {
  const VariantShape& p = GetParam();
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.useAsm = p.useAsm;
  options.useRma = p.useRma;
  options.hideLatency = p.hide;
  CompiledKernel kernel = compiler.compile(options);
  const double gflops =
      estimateGemm(kernel, compiler.arch(), GemmProblem{p.m, p.n, p.k})
          .gflops;
  EXPECT_GT(gflops, 0.0);
  EXPECT_LT(gflops, compiler.arch().peakFlops() / 1e9);
}

std::vector<VariantShape> allCombos() {
  std::vector<VariantShape> combos;
  const std::vector<std::array<std::int64_t, 3>> shapes = {
      {512, 512, 256},   {1024, 1024, 1024}, {4096, 2048, 8192},
      {2048, 4096, 512}, {8192, 8192, 15360}};
  for (const auto& s : shapes) {
    combos.push_back({false, false, false, s[0], s[1], s[2]});
    combos.push_back({true, false, false, s[0], s[1], s[2]});
    combos.push_back({true, true, false, s[0], s[1], s[2]});
    combos.push_back({true, true, true, s[0], s[1], s[2]});
  }
  return combos;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PeakBound, ::testing::ValuesIn(allCombos()),
    [](const ::testing::TestParamInfo<VariantShape>& info) {
      const VariantShape& p = info.param;
      return std::string(p.useAsm ? "asm" : "noasm") +
             (p.useRma ? "_rma" : "_norma") + (p.hide ? "_hide" : "_nohide") +
             "_" + std::to_string(p.m) + "x" + std::to_string(p.n) + "x" +
             std::to_string(p.k);
    });

TEST(EstimatorProperty, VariantOrderingHoldsAcrossShapes) {
  SwGemmCompiler compiler;
  std::vector<CompiledKernel> kernels;
  for (auto [a, r, h] : {std::array<bool, 3>{false, false, false},
                         std::array<bool, 3>{true, false, false},
                         std::array<bool, 3>{true, true, false},
                         std::array<bool, 3>{true, true, true}}) {
    CodegenOptions options;
    options.useAsm = a;
    options.useRma = r;
    options.hideLatency = h;
    kernels.push_back(compiler.compile(options));
  }
  for (std::int64_t m : {512, 2048, 8192})
    for (std::int64_t k : {256, 2048, 16384}) {
      double previous = 0.0;
      for (const CompiledKernel& kernel : kernels) {
        const double gflops =
            estimateGemm(kernel, compiler.arch(), GemmProblem{m, m, k})
                .gflops;
        EXPECT_GT(gflops, previous)
            << "variant ordering violated at " << m << "x" << m << "x" << k;
        previous = gflops;
      }
    }
}

TEST(EstimatorProperty, FasterMemoryNeverHurts) {
  SwGemmCompiler base;
  CompiledKernel kernel = base.compile(CodegenOptions{});
  for (std::int64_t k : {256, 1024, 8192}) {
    const GemmProblem problem{4096, 4096, k};
    sunway::ArchConfig slow;
    slow.ddrBandwidthBytesPerSec = 20e9;
    sunway::ArchConfig fast;
    fast.ddrBandwidthBytesPerSec = 80e9;
    EXPECT_LE(estimateGemm(kernel, fast, problem).seconds,
              estimateGemm(kernel, slow, problem).seconds)
        << k;
  }
}

TEST(EstimatorProperty, FasterRmaNeverHurts) {
  SwGemmCompiler base;
  CodegenOptions options;
  options.hideLatency = false;  // RMA on the critical path
  CompiledKernel kernel = base.compile(options);
  sunway::ArchConfig slow;
  slow.rmaBandwidthBytesPerSec = 10e9;
  sunway::ArchConfig fast;
  fast.rmaBandwidthBytesPerSec = 160e9;
  const GemmProblem problem{4096, 4096, 4096};
  EXPECT_LT(estimateGemm(kernel, fast, problem).seconds,
            estimateGemm(kernel, slow, problem).seconds);
}

TEST(EstimatorProperty, EfficiencyImprovesWithScale) {
  // Fixed per-run overheads amortise: percentage of peak is non-decreasing
  // in the (square) problem size for the full pipeline.
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  double previous = 0.0;
  for (std::int64_t s : {512, 1024, 2048, 4096, 8192, 16384}) {
    const double gflops =
        estimateGemm(kernel, compiler.arch(), GemmProblem{s, s, s}).gflops;
    EXPECT_GE(gflops, previous) << s;
    previous = gflops;
  }
}

TEST(EstimatorProperty, BatchScalingApproachesLinear) {
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.batched = true;
  CompiledKernel kernel = compiler.compile(options);
  const GemmProblem one{1024, 1024, 1024, 1};
  const GemmProblem sixteen{1024, 1024, 1024, 16};
  const double t1 = estimateGemm(kernel, compiler.arch(), one).seconds;
  const double t16 =
      estimateGemm(kernel, compiler.arch(), sixteen).seconds;
  // One spawn amortised over 16 elements: strictly less than 16x, but more
  // than 15x (no superlinear magic).
  EXPECT_LT(t16, 16.0 * t1);
  EXPECT_GT(t16, 15.0 * t1);
}

TEST(EstimatorProperty, BatchNeedsBatchedKernelAndStaysUnderPeak) {
  // An unbatched kernel binds no BATCH parameter: asked for batch 4 it
  // used to model one GEMM yet charge the flops of four, far above peak.
  SwGemmCompiler compiler;
  const GemmProblem problem{1024, 1024, 1024, 4};
  CodegenOptions batchedOptions;
  batchedOptions.batched = true;
  const CompiledKernel batched = compiler.compile(batchedOptions);
  const double gflops =
      estimateGemm(batched, compiler.arch(), problem).gflops;
  EXPECT_GT(gflops, 0.0);
  EXPECT_LT(gflops, compiler.arch().peakFlops() / 1e9);

  const CompiledKernel plain = compiler.compile(CodegenOptions{});
  EXPECT_THROW((void)estimateGemm(plain, compiler.arch(), problem),
               InputError);
  ShardedConfig sixGroups;
  sixGroups.groups = 6;
  EXPECT_THROW(
      (void)estimateSharded(plain, compiler.arch(), sixGroups, problem),
      InputError);
}

TEST(EstimatorProperty, DeterministicAcrossCalls) {
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  const GemmProblem problem{4096, 4096, 4096};
  const double a = estimateGemm(kernel, compiler.arch(), problem).seconds;
  const double b = estimateGemm(kernel, compiler.arch(), problem).seconds;
  EXPECT_EQ(a, b);
}

TEST(EstimatorProperty, PipeliningShrinksExposedStall) {
  // The occupancy breakdown: latency hiding must convert wait-stall time
  // into overlap, and the accounting must stay within the total runtime.
  SwGemmCompiler compiler;
  CodegenOptions hide;
  CodegenOptions noHide;
  noHide.hideLatency = false;
  const GemmProblem problem{4096, 4096, 8192};
  auto fast =
      estimateGemm(compiler.compile(hide), compiler.arch(), problem);
  auto slow =
      estimateGemm(compiler.compile(noHide), compiler.arch(), problem);
  EXPECT_LT(fast.counters.waitStallTicks,
            0.5 * static_cast<double>(slow.counters.waitStallTicks));
  for (const auto& outcome : {fast, slow}) {
    EXPECT_LE(outcome.counters.waitStallTicks, outcome.time);
    EXPECT_LE(outcome.counters.computeTicks, outcome.time);
    // Compute + stall can never exceed the clock they both advance.
    EXPECT_LE(static_cast<double>(outcome.counters.computeTicks +
                                  outcome.counters.waitStallTicks),
              static_cast<double>(outcome.time) * 1.0001);
  }
  // DMA engine busy time is identical (same traffic), only its overlap
  // with compute changes.
  EXPECT_NEAR(static_cast<double>(fast.counters.dmaBusyTicks),
              static_cast<double>(slow.counters.dmaBusyTicks),
              0.01 * static_cast<double>(slow.counters.dmaBusyTicks));
}

TEST(EstimatorProperty, DmaVolumeMatchesAnalyticalFormula) {
  // Per CPE and mesh tile: C in+out (2*64*64) plus K/256 iterations of
  // (64*32 + 32*64) doubles; 64 CPEs, (M/512)*(N/512) mesh tiles.
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  for (std::int64_t s : {512, 1024}) {
    const GemmProblem problem{s, s, s};
    const auto outcome = estimateGemm(kernel, compiler.arch(), problem);
    // The symmetric estimator models one CPE; counters are per-CPE here.
    const std::int64_t meshTiles = (s / 512) * (s / 512);
    const std::int64_t expected =
        meshTiles * (2 * 64 * 64 + (s / 256) * (64 * 32 + 32 * 64)) * 8;
    EXPECT_EQ(outcome.counters.dmaBytes, expected) << s;
  }
}

}  // namespace
}  // namespace sw::core
