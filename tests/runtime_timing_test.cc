// Timing-model tests: the sequential symmetric estimator must agree with
// the 64-CPE mesh simulator's logical clocks — to the tick on padded
// shapes, within its proven bound on edge tiles (sunway/estimator.h) — and
// the model must reproduce the qualitative relationships of §6/§8.1
// (latency hiding wins, RMA slashes DMA traffic 8x, overlap count grows
// with K).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "core/sharded_gemm.h"
#include "runtime/executor.h"
#include "sunway/cpe_timing.h"
#include "sunway/mesh.h"
#include "support/format.h"

namespace sw::core {
namespace {

/// A timing-only mesh run of `kernel` bound to M, N, K and the batch as
/// given: the padded shape for padded kernels, the true extents for
/// edge-tile ones, as estimateGemm binds them.
rt::RunOutcome runThreadedTiming(const CompiledKernel& kernel,
                                 const sunway::ArchConfig& arch,
                                 std::int64_t m, std::int64_t n,
                                 std::int64_t k, std::int64_t batch = 1) {
  sunway::MeshSimulator mesh(arch, /*functional=*/false);
  auto params = rt::bindParams(kernel.program, m, n, k, batch);
  return rt::runOnMesh(mesh, kernel.program, params, rt::ExecScalars{},
                       rt::gemmFlops(m, n, k, batch), kernel.plan.get());
}

struct PaddedKernel {
  std::string label;
  CodegenOptions options;
  std::int64_t batch = 1;
  bool atPaperScale = false;  // also checked at 2048^3
};

std::vector<PaddedKernel> paddedKernels() {
  std::vector<PaddedKernel> kernels;
  const auto add = [&](const char* label, auto configure,
                       std::int64_t batch = 1, bool atPaperScale = false) {
    CodegenOptions options;
    configure(options);
    kernels.push_back({label, options, batch, atPaperScale});
  };
  add("default", [](CodegenOptions&) {}, 1, true);
  add("no_hiding", [](CodegenOptions& o) { o.hideLatency = false; }, 1,
      true);
  add("no_rma", [](CodegenOptions& o) {
    o.useRma = false;
    o.hideLatency = false;
  });
  add("naive", [](CodegenOptions& o) { o.useAsm = false; });
  add("transpose_a", [](CodegenOptions& o) { o.transposeA = true; });
  add("transpose_b", [](CodegenOptions& o) { o.transposeB = true; });
  add("relu", [](CodegenOptions& o) { o.fusion = FusionKind::kEpilogueRelu; });
  add("quantize",
      [](CodegenOptions& o) { o.fusion = FusionKind::kPrologueQuantize; });
  add("batched", [](CodegenOptions& o) { o.batched = true; }, 3);
  add("mk8x8", [](CodegenOptions& o) {
    o.microMr = 8;
    o.microNr = 8;
  });
  add("edge_on_padded", [](CodegenOptions& o) { o.edgeTiles = true; });
  return kernels;
}

class PaddedTiming : public ::testing::TestWithParam<std::int64_t> {};

// On padded shapes every CPE does the same work, so the estimator steps
// the mesh's critical path exactly.
TEST_P(PaddedTiming, EstimatorEqualsMeshToTheTick) {
  const std::int64_t s = GetParam();
  SwGemmCompiler compiler;
  for (const PaddedKernel& pk : paddedKernels()) {
    if (s > 1024 && !pk.atPaperScale) continue;
    const CompiledKernel kernel = compiler.compile(pk.options);
    const rt::RunOutcome threaded =
        runThreadedTiming(kernel, compiler.arch(), s, s, s, pk.batch);
    const rt::RunOutcome estimated = estimateGemm(
        kernel, compiler.arch(), GemmProblem{s, s, s, pk.batch});
    EXPECT_EQ(estimated.time, threaded.time) << pk.label << " at " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, PaddedTiming,
                         ::testing::Values<std::int64_t>(512, 1024, 2048));

// Edge tiles: the estimator runs CPE (0,0), whose tiles clamp least, and
// sends every broadcast round, so it never reads below the mesh and never
// above it by more than one issue overhead per broadcast it sends.
TEST(EdgeTiming, EstimateBoundsTheMeshFromAbove) {
  struct Tile {
    std::int64_t m, n, k;
  };
  struct Shape {
    std::int64_t m, n, k;
  };
  const Tile tiles[] = {{64, 64, 32}, {16, 16, 16}, {32, 16, 16},
                        {32, 32, 32}};
  const Shape shapes[] = {{1, 1, 1},     {13, 7, 5},       {63, 65, 31},
                          {100, 100, 100}, {257, 63, 65}, {129, 257, 300},
                          {512, 512, 256}};
  SwGemmCompiler compiler;
  for (const Tile& tile : tiles) {
    for (const bool hide : {true, false}) {
      CodegenOptions options;
      options.edgeTiles = true;
      options.tileM = tile.m;
      options.tileN = tile.n;
      options.tileK = tile.k;
      options.hideLatency = hide;
      const CompiledKernel kernel = compiler.compile(options);
      for (const Shape& s : shapes) {
        const std::string label =
            strCat("tile ", tile.m, "x", tile.n, "x", tile.k, " hide ",
                   hide, " at ", s.m, "x", s.n, "x", s.k);
        const rt::RunOutcome threaded =
            runThreadedTiming(kernel, compiler.arch(), s.m, s.n, s.k);
        const rt::RunOutcome estimated = estimateGemm(
            kernel, compiler.arch(), GemmProblem{s.m, s.n, s.k});
        const sunway::SimTime gap = estimated.time - threaded.time;
        EXPECT_GE(gap, 0) << label;
        EXPECT_LE(gap, sunway::CpeTiming::kIssueOverheadTicks *
                           estimated.counters.rmaBroadcastsSent)
            << label;
      }
    }
  }
}

/// The sharded mesh run and the sharded estimate of `problem` on
/// `groups` core groups.
struct ShardedPair {
  ShardedOutcome run;
  ShardedOutcome estimate;
};

ShardedPair runAndEstimateSharded(const CodegenOptions& options, int groups,
                                  const GemmProblem& problem) {
  SwGemmCompiler compiler;
  const CompiledKernel kernel = compiler.compile(options);
  ShardedConfig config;
  config.groups = groups;
  std::vector<double> a(static_cast<std::size_t>(problem.m * problem.k), 1.0);
  std::vector<double> b(static_cast<std::size_t>(problem.k * problem.n), 1.0);
  std::vector<double> c(static_cast<std::size_t>(problem.m * problem.n), 0.0);
  return {runShardedFunctional(kernel, compiler.arch(), config, problem, a, b,
                               c),
          estimateSharded(kernel, compiler.arch(), config, problem)};
}

TEST(ShardedTiming, PaddedShardsEqualTheirEstimate) {
  for (const int groups : {2, 3, 6}) {
    const ShardedPair pair = runAndEstimateSharded(
        CodegenOptions{}, groups, GemmProblem{1024, 1024, 512});
    EXPECT_EQ(pair.estimate.seconds, pair.run.seconds) << groups;
  }
}

TEST(ShardedTiming, EdgeShardsNeverExceedTheirEstimate) {
  CodegenOptions options;
  options.edgeTiles = true;
  for (const int groups : {2, 3, 6}) {
    const ShardedPair pair =
        runAndEstimateSharded(options, groups, GemmProblem{700, 300, 200});
    EXPECT_GE(pair.estimate.seconds, pair.run.seconds) << groups;
  }
}

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
