// Tests of multi-core-group sharded execution (core/sharded_gemm.h): the
// shard planner's coverage/alignment invariants, the bit-identity of
// concurrent multi-group runs against single-group execution (edge tiles,
// padded non-divisible shapes, transposes, batch, chained K-split
// reduction), per-group fault-domain isolation, totals that repeat
// bitwise across identical runs and across concurrent callers, and the
// contention-derated multi-group estimator/roofline (including the
// one-group == estimateGemm equality regression).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "core/sharded_gemm.h"
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

bool bitIdentical(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

struct Operands {
  std::vector<double> a, b, c;
};

Operands makeOperands(const CodegenOptions& options,
                      const GemmProblem& problem, unsigned seedBase) {
  Operands ops;
  ops.a = randomMatrix(problem.batch * problem.m * problem.k, seedBase);
  ops.b = randomMatrix(problem.batch * problem.k * problem.n, seedBase + 1);
  ops.c = randomMatrix(problem.batch * problem.m * problem.n, seedBase + 2);
  (void)options;
  return ops;
}

/// Run single-group and sharded executions of the same problem and return
/// (reference C, sharded C, sharded outcome).
struct EquivalenceResult {
  std::vector<double> single;
  std::vector<double> sharded;
  ShardedOutcome outcome;
};

EquivalenceResult runBoth(const CompiledKernel& kernel,
                          const sunway::ArchConfig& arch,
                          const ShardedConfig& config,
                          const GemmProblem& problem, unsigned seedBase) {
  const Operands ops = makeOperands(kernel.options, problem, seedBase);
  EquivalenceResult result;
  result.single = ops.c;
  runGemmFunctional(kernel, arch, problem, ops.a, ops.b, result.single,
                    config.run);
  result.sharded = ops.c;
  result.outcome = runShardedFunctional(kernel, arch, config, problem,
                                        ops.a, ops.b, result.sharded);
  return result;
}

TEST(ShardPlanner, CoversMatrixWithAlignedChunks) {
  SwGemmCompiler compiler;
  CodegenOptions options;  // RMA on: kUnit = tileK * stripFactor = 256
  CompiledKernel kernel = compiler.compile(options);
  const GemmProblem problem{1000, 700, 600, 1};
  const ShardPlan plan =
      planShards(kernel, compiler.arch(), problem, /*groups=*/6,
                 /*kSplit=*/3);

  EXPECT_EQ(plan.kUnit, options.tileK * options.stripFactor);
  // ceil(600 / 256) = 3 units, so all three requested chunks materialise.
  EXPECT_EQ(plan.kChunks, 3);
  EXPECT_EQ(static_cast<int>(plan.shards.size()),
            plan.blocks() * static_cast<int>(plan.kChunks));

  // Every (row, col, chunk) cell covered exactly once; chunk starts
  // aligned to kUnit; block extents tile the matrix.
  std::vector<std::int64_t> cCover(
      static_cast<std::size_t>(problem.m * problem.n), 0);
  for (const Shard& s : plan.shards) {
    EXPECT_EQ(s.k0 % plan.kUnit, 0) << "chunk start must be unit-aligned";
    EXPECT_GE(s.group, 0);
    EXPECT_LT(s.group, 6);
    if (s.chunk != 0) continue;
    for (std::int64_t r = s.m0; r < s.m0 + s.bm; ++r)
      for (std::int64_t cidx = s.n0; cidx < s.n0 + s.bn; ++cidx)
        ++cCover[static_cast<std::size_t>(r * problem.n + cidx)];
  }
  for (const std::int64_t cover : cCover) EXPECT_EQ(cover, 1);
}

TEST(ShardPlanner, RejectsInvalidConfigs) {
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  const GemmProblem problem{512, 512, 256, 1};
  EXPECT_THROW(planShards(kernel, compiler.arch(), problem, 0, 1),
               InputError);
  EXPECT_THROW(planShards(kernel, compiler.arch(), problem,
                          compiler.arch().coreGroups + 1, 1),
               InputError);
  EXPECT_THROW(planShards(kernel, compiler.arch(), problem, 2, 0),
               InputError);

  CodegenOptions fused;
  fused.fusion = FusionKind::kEpilogueRelu;
  CompiledKernel reluKernel = compiler.compile(fused);
  // A chained K split would apply the activation once per partial.
  EXPECT_THROW(planShards(reluKernel, compiler.arch(), problem, 2, 2),
               InputError);
  // M/N-only sharding of the fused kernel stays legal.
  EXPECT_NO_THROW(planShards(reluKernel, compiler.arch(), problem, 2, 1));
}

TEST(ShardedExecution, EdgeTileShapesBitIdenticalAcrossGroupCounts) {
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.edgeTiles = true;
  CompiledKernel kernel = compiler.compile(options);

  // Non-divisible M/N exercise edge tiles inside every shard.
  const GemmProblem problem{150, 100, 96, 1, 1.25, 0.5};
  for (const int groups : {2, 3, 6}) {
    ShardedConfig config;
    config.groups = groups;
    EquivalenceResult result =
        runBoth(kernel, compiler.arch(), config, problem, 100 + groups);
    EXPECT_TRUE(bitIdentical(result.single, result.sharded))
        << groups << " groups";
    EXPECT_EQ(result.outcome.groupsUsed,
              std::min(groups, result.outcome.rowBlocks *
                                   result.outcome.colBlocks));
    EXPECT_TRUE(result.outcome.failures.empty());
    EXPECT_GT(result.outcome.counters.microKernelCalls, 0);
  }
}

TEST(ShardedExecution, PaddedPathBitIdenticalOnNonDivisibleShape) {
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  const GemmProblem problem{200, 120, 96, 1, 1.0, 0.25};
  ShardedConfig config;
  config.groups = 2;
  EquivalenceResult result =
      runBoth(kernel, compiler.arch(), config, problem, 7);
  EXPECT_TRUE(bitIdentical(result.single, result.sharded));
  EXPECT_GT(result.outcome.hostCopyBytes, 0);
}

TEST(ShardedExecution, TransposedOperandsBitIdentical) {
  SwGemmCompiler compiler;
  for (const bool transposeB : {false, true}) {
    CodegenOptions options;
    options.transposeA = !transposeB;
    options.transposeB = transposeB;
    CompiledKernel kernel = compiler.compile(options);
    const GemmProblem problem{160, 96, 64, 1, 2.0, 0.5};
    ShardedConfig config;
    config.groups = 2;
    EquivalenceResult result =
        runBoth(kernel, compiler.arch(), config, problem,
                transposeB ? 21 : 22);
    EXPECT_TRUE(bitIdentical(result.single, result.sharded))
        << (transposeB ? "B^T" : "A^T");
  }
}

TEST(ShardedExecution, BatchedProblemBitIdentical) {
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.batched = true;
  options.edgeTiles = true;
  CompiledKernel kernel = compiler.compile(options);
  const GemmProblem problem{96, 80, 64, 3, 1.0, 1.0};
  ShardedConfig config;
  config.groups = 6;
  EquivalenceResult result =
      runBoth(kernel, compiler.arch(), config, problem, 33);
  EXPECT_TRUE(bitIdentical(result.single, result.sharded));
}

TEST(ShardedExecution, ChainedKSplitReductionBitIdentical) {
  SwGemmCompiler compiler;
  // No RMA so the K chunk unit is tileK (32) and a small K still splits.
  CodegenOptions options;
  options.useRma = false;
  options.hideLatency = false;
  options.edgeTiles = true;
  CompiledKernel kernel = compiler.compile(options);

  for (const double beta : {0.5, 0.0}) {
    const GemmProblem problem{100, 96, 100, 1, 1.5, beta};
    ShardedConfig config;
    config.groups = 4;
    config.kSplit = 3;
    EquivalenceResult result = runBoth(kernel, compiler.arch(), config,
                                       problem, beta == 0.0 ? 41 : 42);
    // ceil(100/32) = 4 K units across 3 chunks.
    EXPECT_EQ(result.outcome.kChunks, 3);
    EXPECT_TRUE(bitIdentical(result.single, result.sharded))
        << "beta=" << beta;
  }
}

TEST(ShardedExecution, FaultedGroupDegradesWithoutCorruption) {
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.edgeTiles = true;
  CompiledKernel kernel = compiler.compile(options);

  // Group 1's mesh loses every DMA reply from the start: its first shard
  // deadlocks, the mesh dumps the per-CPE state and aborts, and the
  // sharded layer re-runs the shard fault-free on the same group.
  auto plan = std::make_shared<sunway::FaultPlan>(
      sunway::FaultPlan::parse("dma-drop:count=forever"));
  const GemmProblem problem{150, 96, 64, 1, 1.0, 0.5};
  ShardedConfig config;
  config.groups = 3;
  config.groupFaultPlan = plan;
  config.faultGroup = 1;

  EquivalenceResult result =
      runBoth(kernel, compiler.arch(), config, problem, 55);
  ASSERT_FALSE(result.outcome.failures.empty());
  for (const ShardedOutcome::GroupFailure& failure :
       result.outcome.failures) {
    EXPECT_EQ(failure.group, 1);
    // The node-level dump names the stuck group's per-CPE state.
    EXPECT_NE(failure.error.find("mesh deadlock: no runnable CPE"),
              std::string::npos)
        << failure.error;
  }
  // Degraded, not corrupted: every group's C block (including the faulted
  // group's, after its fault-free re-run) matches single-group execution.
  EXPECT_TRUE(bitIdentical(result.single, result.sharded));
}

TEST(ShardedExecution, TotalsRepeatBitwiseAcrossIdenticalRuns) {
  // Six groups finish in whatever order the host schedules them; the
  // totals must not depend on it.
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.edgeTiles = true;
  CompiledKernel kernel = compiler.compile(options);
  const GemmProblem problem{256, 256, 256, 1};
  const Operands ops = makeOperands(kernel.options, problem, 61);

  auto run = [&](std::shared_ptr<sunway::FaultPlan> plan) {
    ShardedConfig config;
    config.groups = 6;
    config.groupFaultPlan = std::move(plan);
    config.faultGroup = 2;
    std::vector<double> c = ops.c;
    return runShardedFunctional(kernel, compiler.arch(), config, problem,
                                ops.a, ops.b, c);
  };
  const ShardedOutcome first = run(nullptr);
  const ShardedOutcome second = run(nullptr);
  EXPECT_TRUE(first.counters == second.counters);
  EXPECT_EQ(first.seconds, second.seconds);

  // Group 2 deadlocks on its first shard and re-runs it fault-free.
  auto faulted = [] {
    return std::make_shared<sunway::FaultPlan>(
        sunway::FaultPlan::parse("dma-drop:count=forever"));
  };
  const ShardedOutcome third = run(faulted());
  const ShardedOutcome fourth = run(faulted());
  ASSERT_FALSE(third.failures.empty());
  ASSERT_EQ(third.failures.size(), fourth.failures.size());
  for (std::size_t i = 0; i < third.failures.size(); ++i) {
    EXPECT_EQ(third.failures[i].group, fourth.failures[i].group);
    EXPECT_EQ(third.failures[i].shard, fourth.failures[i].shard);
  }
  EXPECT_TRUE(third.counters == fourth.counters);
  EXPECT_EQ(third.seconds, fourth.seconds);
}

TEST(ShardedExecution, ConcurrentShardedCallsMatchSingleGroup) {
  // Two callers each run a 6-group GEMM at once, so twelve meshes lease
  // arenas from the process-wide pool at the same time and hand them
  // between threads.  Each C equals a single-group run, and the counters
  // equal the same sharded run made alone.
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.edgeTiles = true;
  CompiledKernel kernel = compiler.compile(options);
  const GemmProblem problem{256, 256, 256, 1, 1.0, 0.5};
  ShardedConfig config;
  config.groups = 6;

  std::vector<Operands> ops;
  std::vector<std::vector<double>> single;
  std::vector<ShardedOutcome> alone;
  for (unsigned caller = 0; caller < 2; ++caller) {
    ops.push_back(makeOperands(kernel.options, problem, 70 + 10 * caller));
    single.push_back(ops.back().c);
    runGemmFunctional(kernel, compiler.arch(), problem, ops.back().a,
                      ops.back().b, single.back());
    std::vector<double> c = ops.back().c;
    alone.push_back(runShardedFunctional(kernel, compiler.arch(), config,
                                         problem, ops.back().a, ops.back().b,
                                         c));
  }
  for (int rep = 0; rep < 2; ++rep) {
    std::vector<std::vector<double>> c = {ops[0].c, ops[1].c};
    std::vector<ShardedOutcome> together(2);
    std::vector<std::thread> callers;
    for (std::size_t caller = 0; caller < 2; ++caller)
      callers.emplace_back([&, caller] {
        together[caller] =
            runShardedFunctional(kernel, compiler.arch(), config, problem,
                                 ops[caller].a, ops[caller].b, c[caller]);
      });
    for (std::thread& t : callers) t.join();
    for (std::size_t caller = 0; caller < 2; ++caller) {
      SCOPED_TRACE(testing::Message() << "rep " << rep << " caller " << caller);
      EXPECT_TRUE(bitIdentical(c[caller], single[caller]));
      EXPECT_TRUE(together[caller].counters == alone[caller].counters);
      EXPECT_EQ(together[caller].seconds, alone[caller].seconds);
      EXPECT_TRUE(together[caller].failures.empty());
    }
  }
}

TEST(ShardedEstimator, OneGroupShardCostsExactlySingleGroupEstimate) {
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  const GemmProblem problem{4096, 4096, 4096, 1};
  ShardedConfig config;
  config.groups = 1;
  const ShardedOutcome sharded =
      estimateSharded(kernel, compiler.arch(), config, problem);
  const rt::RunOutcome plain =
      estimateGemm(kernel, compiler.arch(), problem);
  // Regression: the old multi-cluster estimator charged 3 NoC latencies
  // plus byte costs at clusters == 1.  A one-group shard is the whole
  // problem on an underated group: exactly the single-group estimate.
  EXPECT_DOUBLE_EQ(sharded.seconds, plain.seconds);
  EXPECT_DOUBLE_EQ(sharded.gflops, plain.gflops);
  EXPECT_DOUBLE_EQ(sharded.communicationSeconds, 0.0);
  EXPECT_DOUBLE_EQ(sharded.contentionDerate, 1.0);
}

TEST(ShardedEstimator, ContentionDeratesTheMultiGroupRoofline) {
  SwGemmCompiler compiler;
  const sunway::ArchConfig& arch = compiler.arch();
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  const GemmProblem problem{12288, 4096, 4096, 1};

  ShardedConfig single;
  single.groups = 1;
  const ShardedOutcome one = estimateSharded(kernel, arch, single, problem);
  ShardedConfig six;
  six.groups = 6;
  const ShardedOutcome node = estimateSharded(kernel, arch, six, problem);

  // Concurrent groups scale, but never linearly: the shared DDR pool
  // derates each group's bandwidth (144/6 = 24 < 36 GB/s) and the NoC
  // hand-off is on the critical path.
  EXPECT_GT(node.gflops, one.gflops);
  EXPECT_LT(node.gflops, 6.0 * one.gflops);
  EXPECT_DOUBLE_EQ(node.contentionDerate,
                   arch.groupDdrBandwidth(6) / arch.ddrBandwidthBytesPerSec);
  EXPECT_LT(node.contentionDerate, 1.0);
  EXPECT_GT(node.communicationSeconds, 0.0);

  // The multi-group roofline: compute peak scales 6x, the DMA peak is the
  // contention-derated node aggregate, strictly below 6x a single group.
  EXPECT_NEAR(node.report.roofline.peakGflops,
              6.0 * one.report.roofline.peakGflops, 1e-9);
  EXPECT_NEAR(node.report.roofline.peakDmaGBps,
              6.0 * arch.groupDdrBandwidth(6) / 1e9, 1e-9);
  EXPECT_LT(node.report.roofline.peakDmaGBps,
            6.0 * arch.ddrBandwidthBytesPerSec / 1e9);

  // Scaling stays monotonic while it lasts (1 -> 2 -> 3 -> 6 groups).
  double previous = 0.0;
  for (const int groups : {1, 2, 3, 6}) {
    ShardedConfig config;
    config.groups = groups;
    const ShardedOutcome outcome =
        estimateSharded(kernel, arch, config, problem);
    EXPECT_GT(outcome.gflops, previous) << groups;
    previous = outcome.gflops;
  }
}

}  // namespace
}  // namespace sw::core
