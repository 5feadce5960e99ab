// Chaos suite for the fault-injection plan and the recovery machinery
// above it: FaultPlan parsing/decision determinism, bit-correct recovery
// from transient DMA faults via the interpreter's retry, clean escalation
// when the retry budget runs out, and the KernelService degradation
// ladder down to the symmetric estimator.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "service/kernel_service.h"
#include "support/error.h"
#include "support/metrics.h"
#include "sunway/fault.h"

namespace sw {
namespace {

using core::CodegenOptions;
using core::CompiledKernel;
using core::FunctionalRunConfig;
using core::GemmProblem;
using sunway::FaultDecision;
using sunway::FaultKind;
using sunway::FaultOpClass;
using sunway::FaultPlan;
using sunway::FaultSpec;

// --- FaultPlan grammar & decisions --------------------------------------

TEST(FaultPlan, ParsesFullGrammar) {
  FaultPlan plan = FaultPlan::parse(
      "dma-drop:cpe=3:occ=2:count=4;"
      "rma-delay:cpe=*:seconds=0.001;"
      "stall:seconds=0.5:rate=0.25:seed=7;"
      "dma-corrupt:count=forever");
  ASSERT_EQ(plan.specs().size(), 4u);
  const FaultSpec& drop = plan.specs()[0];
  EXPECT_EQ(drop.kind, FaultKind::kDmaDropReply);
  EXPECT_EQ(drop.cpe, 3);
  EXPECT_EQ(drop.occurrence, 2);
  EXPECT_EQ(drop.count, 4);
  EXPECT_FALSE(drop.permanent());
  EXPECT_EQ(plan.specs()[1].cpe, -1);
  EXPECT_DOUBLE_EQ(plan.specs()[1].seconds, 0.001);
  EXPECT_DOUBLE_EQ(plan.specs()[2].rate, 0.25);
  EXPECT_EQ(plan.specs()[2].seed, 7u);
  EXPECT_TRUE(plan.specs()[3].permanent());
  EXPECT_NE(plan.describe().find("dma-drop"), std::string::npos);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("gamma-ray"), InputError);
  EXPECT_THROW(FaultPlan::parse("dma-drop:count=0"), InputError);
  EXPECT_THROW(FaultPlan::parse("dma-drop:rate=1.5"), InputError);
  EXPECT_THROW(FaultPlan::parse("dma-drop:occ=-1"), InputError);
  EXPECT_THROW(FaultPlan::parse("dma-delay"), InputError);  // needs seconds
  EXPECT_THROW(FaultPlan::parse("stall:seconds=0"), InputError);
}

TEST(FaultPlan, OrdinalWindowMatchesExactly) {
  FaultPlan plan = FaultPlan::parse("dma-drop:cpe=2:occ=3:count=2");
  EXPECT_FALSE(plan.decide(FaultOpClass::kDma, 2, 2).any());
  EXPECT_TRUE(plan.decide(FaultOpClass::kDma, 2, 3).dropTransient);
  EXPECT_TRUE(plan.decide(FaultOpClass::kDma, 2, 4).dropTransient);
  EXPECT_FALSE(plan.decide(FaultOpClass::kDma, 2, 5).any());
  EXPECT_FALSE(plan.decide(FaultOpClass::kDma, 1, 3).any());  // other CPE
  EXPECT_FALSE(plan.decide(FaultOpClass::kRma, 2, 3).any());  // other class

  FaultPlan forever = FaultPlan::parse("dma-drop:cpe=0:count=forever");
  EXPECT_TRUE(forever.decide(FaultOpClass::kDma, 0, 12345).dropPermanent);
  EXPECT_FALSE(forever.decide(FaultOpClass::kDma, 0, 0).dropTransient);
}

TEST(FaultPlan, ProbabilisticPlansReplayDeterministically) {
  FaultPlan a = FaultPlan::parse("dma-drop:rate=0.5:seed=42");
  FaultPlan b = FaultPlan::parse("dma-drop:rate=0.5:seed=42");
  FaultPlan other = FaultPlan::parse("dma-drop:rate=0.5:seed=43");
  int fires = 0, divergences = 0;
  for (std::int64_t occ = 0; occ < 1000; ++occ) {
    const bool hitA = a.decide(FaultOpClass::kDma, 7, occ).dropTransient;
    const bool hitB = b.decide(FaultOpClass::kDma, 7, occ).dropTransient;
    EXPECT_EQ(hitA, hitB) << "same seed must replay identically, occ=" << occ;
    fires += hitA ? 1 : 0;
    divergences +=
        hitA != other.decide(FaultOpClass::kDma, 7, occ).dropTransient ? 1 : 0;
  }
  // rate=0.5 over 1000 sites: sanity-band, not a statistics test.
  EXPECT_GT(fires, 300);
  EXPECT_LT(fires, 700);
  EXPECT_GT(divergences, 0) << "a different seed must decorrelate";
}

TEST(FaultPlan, CorruptTileIsDeterministicAndDamaging) {
  std::vector<double> original(64, 1.25);
  std::vector<double> first = original, second = original;
  FaultPlan::corruptTile(first.data(), 64, /*cpe=*/9, /*occurrence=*/4);
  FaultPlan::corruptTile(second.data(), 64, /*cpe=*/9, /*occurrence=*/4);
  EXPECT_EQ(first, second);
  EXPECT_NE(first, original);
}

// --- end-to-end recovery on the real mesh -------------------------------

std::vector<double> randomMatrix(std::int64_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> data(static_cast<std::size_t>(count));
  for (double& v : data) v = dist(rng);
  return data;
}

struct ChaosFixture {
  CompiledKernel kernel;
  sunway::ArchConfig arch;
  GemmProblem problem{512, 512, 64, 1, 1.0, 0.0};
  std::vector<double> a, b, baselineC;

  ChaosFixture() {
    core::SwGemmCompiler compiler;
    kernel = compiler.compile(CodegenOptions{});
    arch = compiler.arch();
    a = randomMatrix(problem.m * problem.k, 21);
    b = randomMatrix(problem.k * problem.n, 22);
    baselineC = std::vector<double>(
        static_cast<std::size_t>(problem.m * problem.n), 0.0);
    core::runGemmFunctional(kernel, arch, problem, a, b, baselineC);
  }
};

const ChaosFixture& fixture() {
  static ChaosFixture* f = new ChaosFixture();
  return *f;
}

TEST(ChaosMesh, TransientDmaDropRecoversBitCorrect) {
  std::vector<double> c;
  FunctionalRunConfig config;
  config.faultPlan = std::make_shared<const FaultPlan>(
      FaultPlan::parse("dma-drop:cpe=0:occ=1:count=1"));
  const ChaosFixture& fx = fixture();
  c.assign(static_cast<std::size_t>(fx.problem.m * fx.problem.n), 0.0);
  rt::RunOutcome outcome = core::runGemmFunctional(fx.kernel, fx.arch,
                                                   fx.problem, fx.a, fx.b, c,
                                                   config);
  EXPECT_EQ(outcome.counters.faultsInjected, 1);
  EXPECT_EQ(outcome.counters.dmaRetries, 1);
  EXPECT_EQ(c, fx.baselineC) << "retry must reproduce the fault-free result";
}

TEST(ChaosMesh, CorruptedTileIsRefetchedBitCorrect) {
  const ChaosFixture& fx = fixture();
  std::vector<double> c(static_cast<std::size_t>(fx.problem.m * fx.problem.n),
                        0.0);
  FunctionalRunConfig config;
  config.faultPlan = std::make_shared<const FaultPlan>(
      FaultPlan::parse("dma-corrupt:cpe=5:occ=0:count=1"));
  rt::RunOutcome outcome = core::runGemmFunctional(fx.kernel, fx.arch,
                                                   fx.problem, fx.a, fx.b, c,
                                                   config);
  EXPECT_GE(outcome.counters.dmaRetries, 1);
  EXPECT_EQ(c, fx.baselineC)
      << "a corrupted tile must be detected and re-fetched clean";
}

TEST(ChaosMesh, DmaDelayOnlySlowsTheClock) {
  const ChaosFixture& fx = fixture();
  std::vector<double> c(static_cast<std::size_t>(fx.problem.m * fx.problem.n),
                        0.0);
  FunctionalRunConfig config;
  config.faultPlan = std::make_shared<const FaultPlan>(
      FaultPlan::parse("dma-delay:cpe=*:count=forever:seconds=0.0001"));
  rt::RunOutcome baseline = core::runGemmFunctional(
      fx.kernel, fx.arch, fx.problem, fx.a, fx.b, c);
  rt::RunOutcome delayed = core::runGemmFunctional(
      fx.kernel, fx.arch, fx.problem, fx.a, fx.b, c, config);
  EXPECT_GT(delayed.seconds, baseline.seconds);
  EXPECT_EQ(c, fx.baselineC) << "delays must never change the data";
}

TEST(ChaosMesh, RetryBudgetExhaustionEscalatesCleanly) {
  const ChaosFixture& fx = fixture();
  std::vector<double> c(static_cast<std::size_t>(fx.problem.m * fx.problem.n),
                        0.0);
  FunctionalRunConfig config;
  // Occurrences 0..9 of CPE 0 all fail: the first wait plus all three
  // retries hit the window, so the interpreter must give up with a
  // ProtocolError that names the slot and the retry count — not hang.
  config.faultPlan = std::make_shared<const FaultPlan>(
      FaultPlan::parse("dma-drop:cpe=0:occ=0:count=10"));
  try {
    core::runGemmFunctional(fx.kernel, fx.arch, fx.problem, fx.a, fx.b, c,
                            config);
    FAIL() << "expected ProtocolError after exhausting retries";
  } catch (const ProtocolError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("still failing after 3 retries"),
              std::string::npos)
        << message;
  }
}

// --- KernelService degradation ladder -----------------------------------

TEST(Degradation, StopsAtFirstHealthyRung) {
  service::KernelService service;
  service.setRunFnForTest(
      [](const CompiledKernel& kernel, const GemmProblem&,
         std::span<const double>, std::span<const double>,
         std::span<double> c, const FunctionalRunConfig&) -> rt::RunOutcome {
        if (kernel.options.useAsm)
          throw ProtocolError("asm rung faulted (stub)");
        c[0] = 42.0;
        rt::RunOutcome outcome;
        outcome.seconds = 1.0;
        return outcome;
      });

  GemmProblem problem{512, 512, 64, 1, 1.0, 0.0};
  std::vector<double> a(static_cast<std::size_t>(problem.m * problem.k), 0.0);
  std::vector<double> b(static_cast<std::size_t>(problem.k * problem.n), 0.0);
  std::vector<double> c(static_cast<std::size_t>(problem.m * problem.n), 0.0);
  const double degradesBefore =
      metrics::MetricsRegistry::global().get("service.degrade.to_naive");

  auto result = service.runResilient(CodegenOptions{}, problem, a, b, c);

  EXPECT_FALSE(result.usedEstimator);
  EXPECT_FALSE(result.servedOptions.useAsm);
  EXPECT_TRUE(result.servedOptions.useRma);
  ASSERT_EQ(result.degradations.size(), 1u);
  EXPECT_EQ(result.degradations[0].from, "asm-microkernel");
  EXPECT_EQ(result.degradations[0].to, "naive-compute");
  EXPECT_NE(result.degradations[0].error.find("asm rung faulted"),
            std::string::npos);
  EXPECT_EQ(c[0], 42.0) << "the healthy rung's result must be copied back";
  EXPECT_GT(metrics::MetricsRegistry::global().get("service.degrade.to_naive"),
            degradesBefore);
}

TEST(Degradation, EveryRungRunsTheRequestedEngine) {
  service::KernelService service;
  std::vector<rt::ExecEngine> enginesTried;
  service.setRunFnForTest(
      [&enginesTried](const CompiledKernel& kernel, const GemmProblem&,
                      std::span<const double>, std::span<const double>,
                      std::span<double>,
                      const FunctionalRunConfig& runConfig) -> rt::RunOutcome {
        enginesTried.push_back(runConfig.engine);
        if (kernel.options.useAsm)
          throw ProtocolError("asm rung faulted (stub)");
        return rt::RunOutcome{};
      });

  GemmProblem problem{512, 512, 64, 1, 1.0, 0.0};
  std::vector<double> a(static_cast<std::size_t>(problem.m * problem.k), 0.0);
  std::vector<double> b(static_cast<std::size_t>(problem.k * problem.n), 0.0);
  std::vector<double> c(static_cast<std::size_t>(problem.m * problem.n), 0.0);
  FunctionalRunConfig runConfig;
  runConfig.engine = rt::ExecEngine::kTreeWalk;

  auto result =
      service.runResilient(CodegenOptions{}, problem, a, b, c, runConfig);

  // Degrading changes the schedule, never the engine.
  ASSERT_EQ(enginesTried.size(), 2u);
  EXPECT_EQ(enginesTried[0], rt::ExecEngine::kTreeWalk);
  EXPECT_EQ(enginesTried[1], rt::ExecEngine::kTreeWalk);
  ASSERT_EQ(result.degradations.size(), 1u);
  EXPECT_EQ(result.degradations[0].from, "asm-microkernel");
  EXPECT_EQ(result.degradations[0].to, "naive-compute");
}

TEST(Degradation, AllMeshRungsFailingFallsBackToEstimator) {
  service::KernelService service;
  service.setRunFnForTest(
      [](const CompiledKernel&, const GemmProblem&, std::span<const double>,
         std::span<const double>, std::span<double> c,
         const FunctionalRunConfig&) -> rt::RunOutcome {
        c[0] = -1.0;  // must never reach the caller: the rung fails
        throw ProtocolError("mesh deadlock: injected for test");
      });

  GemmProblem problem{512, 512, 64, 1, 1.0, 0.0};
  std::vector<double> a(static_cast<std::size_t>(problem.m * problem.k), 0.0);
  std::vector<double> b(static_cast<std::size_t>(problem.k * problem.n), 0.0);
  std::vector<double> c(static_cast<std::size_t>(problem.m * problem.n), 7.0);
  const double estimatorBefore =
      metrics::MetricsRegistry::global().get("service.degrade.to_estimator");

  auto result = service.runResilient(CodegenOptions{}, problem, a, b, c);

  EXPECT_TRUE(result.usedEstimator);
  EXPECT_GT(result.outcome.seconds, 0.0) << "estimator still models timing";
  ASSERT_EQ(result.degradations.size(), 3u);
  EXPECT_EQ(result.degradations.back().to, "estimator");
  EXPECT_NE(result.degradations.back().error.find("injected for test"),
            std::string::npos);
  EXPECT_TRUE(std::all_of(c.begin(), c.end(), [](double v) { return v == 0.0; }))
      << "the estimator rung computes nothing, so it zero-fills C rather than\n"
         "leaving the caller's stale values looking like a result";
  EXPECT_GT(
      metrics::MetricsRegistry::global().get("service.degrade.to_estimator"),
      estimatorBefore);
}

TEST(Degradation, PermanentDropOnRealMeshDegradesToEstimator) {
  service::KernelService service;
  GemmProblem problem{512, 512, 64, 1, 1.0, 0.0};
  std::vector<double> a = randomMatrix(problem.m * problem.k, 31);
  std::vector<double> b = randomMatrix(problem.k * problem.n, 32);
  std::vector<double> c(static_cast<std::size_t>(problem.m * problem.n), 0.0);

  FunctionalRunConfig config;
  config.faultPlan = std::make_shared<const FaultPlan>(
      FaultPlan::parse("dma-drop:cpe=1:occ=0:count=forever"));
  const double deadlocksBefore =
      metrics::MetricsRegistry::global().get("mesh.deadlocks");

  auto result =
      service.runResilient(CodegenOptions{}, problem, a, b, c, config);

  // Every schedule rung still issues DMAs from CPE 1, so each one
  // deadlocks, and the ladder bottoms out at the estimator.
  EXPECT_TRUE(result.usedEstimator);
  EXPECT_EQ(result.degradations.size(), 3u);
  EXPECT_GT(result.outcome.seconds, 0.0);
  EXPECT_GE(metrics::MetricsRegistry::global().get("mesh.deadlocks"),
            deadlocksBefore + 3.0);
  for (const auto& step : result.degradations)
    EXPECT_NE(step.error.find("mesh deadlock: no runnable CPE"),
              std::string::npos)
        << step.from << " -> " << step.to << ": " << step.error;
}

}  // namespace
}  // namespace sw
