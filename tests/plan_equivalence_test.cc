// The lowered execution plan (runtime/plan.h) must be observationally
// identical to the tree-walking reference interpreter: bit-identical C,
// identical counters, and identical simulated ticks, across shapes,
// option sets, and fault-injected runs.  These tests run every case
// through both engines via runGemmFunctional and compare exhaustively.
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <random>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "kernel/reference.h"
#include "runtime/plan.h"
#include "sunway/fault.h"

namespace sw::core {
namespace {

std::vector<double> randomMatrix(std::int64_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> data(static_cast<std::size_t>(count));
  for (double& v : data) v = dist(rng);
  return data;
}

void expectCountersEqual(const sunway::CpeCounters& plan,
                         const sunway::CpeCounters& tree) {
  EXPECT_EQ(plan.dmaMessages, tree.dmaMessages);
  EXPECT_EQ(plan.dmaBytes, tree.dmaBytes);
  EXPECT_EQ(plan.rmaBroadcastsSent, tree.rmaBroadcastsSent);
  EXPECT_EQ(plan.rmaBytesSent, tree.rmaBytesSent);
  EXPECT_EQ(plan.syncs, tree.syncs);
  EXPECT_EQ(plan.microKernelCalls, tree.microKernelCalls);
  EXPECT_EQ(plan.flops, tree.flops);
  EXPECT_EQ(plan.computeTicks, tree.computeTicks);
  EXPECT_EQ(plan.dmaBusyTicks, tree.dmaBusyTicks);
  EXPECT_EQ(plan.rmaBusyTicks, tree.rmaBusyTicks);
  EXPECT_EQ(plan.waitStallTicks, tree.waitStallTicks);
  EXPECT_EQ(plan.faultsInjected, tree.faultsInjected);
  EXPECT_EQ(plan.dmaRetries, tree.dmaRetries);
}

struct PlanCase {
  const char* label;
  std::int64_t m, n, k, batch;
  double alpha, beta;
  bool batched = false;
  bool useRma = true;
  bool hideLatency = true;
  bool useAsm = true;
  FusionKind fusion = FusionKind::kNone;
  const char* inject = nullptr;  // --inject spec, nullptr = no faults
  bool edgeTiles = false;        // compile edge tiles, run unpadded
  int microMr = 4, microNr = 8;  // register-blocked micro-kernel variant
};

CodegenOptions optionsFor(const PlanCase& pc) {
  CodegenOptions options;
  options.batched = pc.batched;
  options.useRma = pc.useRma;
  options.hideLatency = pc.hideLatency;
  options.useAsm = pc.useAsm;
  options.fusion = pc.fusion;
  options.edgeTiles = pc.edgeTiles;
  options.microMr = pc.microMr;
  options.microNr = pc.microNr;
  return options;
}

class PlanEquivalence : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanEquivalence, MatchesTreeWalkBitExactly) {
  const PlanCase& pc = GetParam();
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(optionsFor(pc));
  ASSERT_NE(kernel.plan, nullptr);

  const std::int64_t countA = pc.batch * pc.m * pc.k;
  const std::int64_t countB = pc.batch * pc.k * pc.n;
  const std::int64_t countC = pc.batch * pc.m * pc.n;
  std::vector<double> a = randomMatrix(countA, 101);
  std::vector<double> b = randomMatrix(countB, 102);
  std::vector<double> cInit = randomMatrix(countC, 103);
  GemmProblem problem{pc.m, pc.n, pc.k, pc.batch, pc.alpha, pc.beta};

  FunctionalRunConfig planConfig;
  FunctionalRunConfig treeConfig;
  treeConfig.engine = rt::ExecEngine::kTreeWalk;
  if (pc.inject != nullptr) {
    auto plan = std::make_shared<const sunway::FaultPlan>(
        sunway::FaultPlan::parse(pc.inject));
    planConfig.faultPlan = plan;
    treeConfig.faultPlan = plan;
  }

  std::vector<double> cPlan = cInit;
  rt::RunOutcome planOutcome = runGemmFunctional(
      kernel, compiler.arch(), problem, a, b, cPlan, planConfig);
  std::vector<double> cTree = cInit;
  rt::RunOutcome treeOutcome = runGemmFunctional(
      kernel, compiler.arch(), problem, a, b, cTree, treeConfig);

  // Bit-identical result matrix (memcmp distinguishes -0.0 from 0.0 and
  // NaN payloads, which a numeric comparison would not).
  EXPECT_EQ(std::memcmp(cPlan.data(), cTree.data(),
                        static_cast<std::size_t>(countC) * sizeof(double)),
            0)
      << "max |diff| = "
      << kernel::maxAbsDiff(cPlan.data(), cTree.data(), countC);
  EXPECT_EQ(planOutcome.time, treeOutcome.time);
  expectCountersEqual(planOutcome.counters, treeOutcome.counters);
  EXPECT_EQ(planOutcome.hostCopyBytes, treeOutcome.hostCopyBytes);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlanEquivalence,
    ::testing::Values(
        PlanCase{"square", 128, 128, 128, 1, 1.0, 1.0},
        PlanCase{"nonsquare", 65, 129, 33, 1, -2.5, 0.5},
        // beta == 0 never reads C: the kernel zero-fills the tile instead.
        PlanCase{"beta_zero", 96, 96, 96, 1, 1.0, 0.0},
        PlanCase{"batched", 64, 96, 64, 3, 1.25, 0.75, /*batched=*/true},
        PlanCase{"fused_relu", 96, 64, 64, 1, 1.0, 1.0, false, true, true,
                 true, FusionKind::kEpilogueRelu},
        PlanCase{"fused_quant", 64, 64, 96, 1, 0.5, 2.0, false, true, true,
                 true, FusionKind::kPrologueQuantize},
        PlanCase{"no_rma", 128, 96, 64, 1, 1.0, 1.0, false, /*useRma=*/false,
                 /*hideLatency=*/false},
        PlanCase{"naive_compute", 100, 100, 100, 1, 1.0, 1.0, false, true,
                 true, /*useAsm=*/false},
        PlanCase{"faulted", 128, 64, 64, 1, 1.0, 1.0, false, true, true, true,
                 FusionKind::kNone, "dma-drop:occ=1:count=2"},
        PlanCase{"fault_delay_mix", 96, 96, 96, 1, 1.0, 0.0, false, true,
                 true, true, FusionKind::kNone,
                 "dma-delay:occ=0:count=3:seconds=2e-6;stall:cpe=5:occ=1:"
                 "seconds=1e-6"},
        // Edge-tile kernels bind the caller's unpadded arrays; both engines
        // must clamp identically.
        PlanCase{"edge_square", 100, 100, 100, 1, 1.0, 1.0, false, true,
                 true, true, FusionKind::kNone, nullptr, /*edgeTiles=*/true},
        PlanCase{"edge_irregular", 63, 129, 65, 1, -1.5, 0.25, false, true,
                 true, true, FusionKind::kNone, nullptr, /*edgeTiles=*/true},
        PlanCase{"edge_no_rma", 65, 63, 33, 1, 1.0, 1.0, false,
                 /*useRma=*/false, /*hideLatency=*/false, true,
                 FusionKind::kNone, nullptr, /*edgeTiles=*/true},
        // Non-default register blocking must stay engine-invariant too.
        PlanCase{"mk_2x16", 96, 64, 64, 1, 1.0, 1.0, false, true, true, true,
                 FusionKind::kNone, nullptr, false, /*microMr=*/2,
                 /*microNr=*/16},
        PlanCase{"mk_8x4_edge", 63, 65, 40, 1, 2.0, -0.5, false, true, true,
                 true, FusionKind::kNone, nullptr, /*edgeTiles=*/true,
                 /*microMr=*/8, /*microNr=*/4}),
    [](const ::testing::TestParamInfo<PlanCase>& info) {
      return info.param.label;
    });

TEST(PlanEquivalence, EstimatorTimingMatchesTreeWalk) {
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  ASSERT_NE(kernel.plan, nullptr);
  // 512^3 steps every op; at 2048x1536x4096 the plan engine fast-forwards
  // (the tree-walk never does) and must still match to the tick.
  for (const auto& [m, n, k] :
       {std::array<std::int64_t, 3>{512, 512, 512}, {2048, 1536, 4096}}) {
    auto params = rt::bindParams(kernel.program, m, n, k);
    const double flops = rt::gemmFlops(m, n, k);
    rt::RunOutcome plan = rt::estimateTiming(
        compiler.arch(), kernel.program, params, flops, kernel.plan.get());
    rt::RunOutcome tree =
        rt::estimateTiming(compiler.arch(), kernel.program, params, flops);
    EXPECT_EQ(plan.time, tree.time);
    expectCountersEqual(plan.counters, tree.counters);
    EXPECT_EQ(tree.report.steadyState.jumps, 0);
    if (k == 4096) {
      EXPECT_GT(plan.report.steadyState.jumps, 0);
    }
  }
}

TEST(PlanEquivalence, LoweringIsDeterministic) {
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  auto relowered = rt::lowerToPlan(kernel.program);
  ASSERT_NE(kernel.plan, nullptr);
  EXPECT_EQ(kernel.plan->code.size(), relowered->code.size());
  EXPECT_EQ(kernel.plan->frameSlots, relowered->frameSlots);
  EXPECT_EQ(kernel.plan->exprs.size(), relowered->exprs.size());
}

}  // namespace
}  // namespace sw::core
