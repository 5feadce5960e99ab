// Tests of the metrics layer: registry semantics, the deriveRunMetrics
// formulas on hand-made counters, the per-CPE counter invariants of a
// functional mesh run, and the §6 acceptance property that latency hiding
// strictly raises the overlap gauge.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "core/pipeline.h"
#include "runtime/executor.h"
#include "sunway/host_memory.h"
#include "sunway/mesh.h"
#include "support/histogram.h"
#include "support/metrics.h"

namespace sw {
namespace {

TEST(MetricsRegistry, SetAddGetSnapshotClear) {
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::global();
  registry.clear();
  EXPECT_FALSE(registry.has("x"));
  EXPECT_EQ(registry.get("x"), 0.0);
  registry.set("x", 2.5);
  EXPECT_TRUE(registry.has("x"));
  EXPECT_EQ(registry.get("x"), 2.5);
  registry.add("x", 1.5);
  registry.add("fresh", 3.0);  // add on a missing gauge starts from 0
  EXPECT_EQ(registry.get("x"), 4.0);
  EXPECT_EQ(registry.get("fresh"), 3.0);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap.at("x"), 4.0);
  registry.clear();
  EXPECT_FALSE(registry.has("x"));
}

TEST(DeriveRunMetrics, FormulasOnKnownCounters) {
  sunway::CpeCounters totals;
  totals.computeTicks = sunway::ticksFromSeconds(4.0);
  totals.dmaBusyTicks = sunway::ticksFromSeconds(2.0);
  totals.rmaBusyTicks = sunway::ticksFromSeconds(1.0);
  totals.waitStallTicks = sunway::ticksFromSeconds(0.5);

  codegen::KernelProgram program;
  program.buffers = {codegen::SpmBufferDecl{"C", 64, 64, 1, 0},
                     codegen::SpmBufferDecl{"A", 64, 32, 2, 0}};
  codegen::planSpmLayout(program, 256 * 1024);

  const metrics::DerivedRunMetrics m = rt::deriveRunMetrics(
      totals, /*wall=*/sunway::ticksFromSeconds(5.0), /*cpeCount=*/1, program,
      256 * 1024);
  // busy = 3, hidden = 3 - 0.5 = 2.5.
  EXPECT_NEAR(m.overlapPct, 100.0 * 2.5 / 3.0, 1e-9);
  EXPECT_NEAR(m.stallPct, 100.0 * 0.5 / 4.5, 1e-9);
  EXPECT_NEAR(m.computePct, 80.0, 1e-9);
  EXPECT_EQ(m.spmHighWaterBytes, program.spmBytesUsed());
  EXPECT_EQ(m.spmBudgetBytes, 256 * 1024);
  EXPECT_EQ(m.perBufferBytes.at("C"), 64 * 64 * 8);
  EXPECT_EQ(m.perBufferBytes.at("A"), 2 * 64 * 32 * 8);

  // Gauge flattening carries every scalar plus one entry per buffer.
  const auto gauges = m.toGauges("t.");
  EXPECT_NEAR(gauges.at("t.overlap_pct"), m.overlapPct, 1e-12);
  EXPECT_TRUE(gauges.count("t.spm_buffer_bytes.A"));
}

TEST(DeriveRunMetrics, StallHeavyScheduleHasLowOverlap) {
  sunway::CpeCounters totals;
  totals.computeTicks = sunway::ticksFromSeconds(1.0);
  totals.dmaBusyTicks = sunway::ticksFromSeconds(2.0);
  totals.waitStallTicks = sunway::ticksFromSeconds(2.0);  // all DMA exposed
  codegen::KernelProgram program;
  const metrics::DerivedRunMetrics m = rt::deriveRunMetrics(
      totals, sunway::ticksFromSeconds(3.0), 1, program, 256 * 1024);
  EXPECT_NEAR(m.overlapPct, 0.0, 1e-9);
  EXPECT_GE(m.stallPct, 50.0);
}

TEST(SafeMath, ZeroAndNonFiniteInputsYieldZero) {
  EXPECT_EQ(metrics::safeDiv(1.0, 0.0), 0.0);
  EXPECT_EQ(metrics::safeDiv(1.0, -2.0), 0.0);
  EXPECT_EQ(metrics::safeDiv(std::nan(""), 2.0), 0.0);
  EXPECT_EQ(metrics::safeDiv(1.0, std::nan("")), 0.0);
  EXPECT_EQ(metrics::safeDiv(1.0, HUGE_VAL), 0.0);
  EXPECT_DOUBLE_EQ(metrics::safeDiv(6.0, 3.0), 2.0);
  EXPECT_EQ(metrics::safePct(5.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(metrics::safePct(1.0, 4.0), 25.0);
}

TEST(DeriveRunMetrics, IdleCountersAreZeroNeverNaN) {
  // An idle run (zero busy, zero active, zero wall clock) must read as 0%
  // everywhere — historically these divisions produced NaN gauges.
  const sunway::CpeCounters idle;
  codegen::KernelProgram program;
  const metrics::DerivedRunMetrics m =
      rt::deriveRunMetrics(idle, /*wallSeconds=*/0.0, /*cpeCount=*/64,
                           program, /*spmBudgetBytes=*/256 * 1024);
  EXPECT_EQ(m.overlapPct, 0.0);
  EXPECT_EQ(m.stallPct, 0.0);
  EXPECT_EQ(m.computePct, 0.0);
  EXPECT_TRUE(std::isfinite(m.overlapPct));
  EXPECT_TRUE(std::isfinite(m.stallPct));
  EXPECT_TRUE(std::isfinite(m.computePct));
  EXPECT_EQ(m.spmBudgetPct, 0.0);
  for (const auto& [name, value] : m.toGauges("idle."))
    EXPECT_TRUE(std::isfinite(value)) << name;
}

TEST(FormatMetricsTable, GroupsSortsAndAnnotatesUnits) {
  const std::map<std::string, double> gauges = {
      {"run.overlap_pct", 42.5},
      {"run.spm_high_water_bytes", 2048.0},
      {"service.requests", 3.0},
  };
  const std::string expected =
      "run:\n"
      "  overlap_pct                                        42.5 %\n"
      "  spm_high_water_bytes                                2.0 KB\n"
      "\n"
      "service:\n"
      "  requests                                              3\n";
  EXPECT_EQ(metrics::formatMetricsTable(gauges), expected);
}

TEST(FormatMetricsTable, UngroupedGaugesGetTheirOwnSection) {
  const std::string table =
      metrics::formatMetricsTable({{"loose", 1.5}, {"g.x_ms", 2.0}});
  EXPECT_NE(table.find("(ungrouped):"), std::string::npos);
  EXPECT_NE(table.find("g:"), std::string::npos);
  EXPECT_NE(table.find("ms"), std::string::npos);
}

TEST(FormatHistogramTable, OneRowPerHistogramWithPercentiles) {
  metrics::Histogram h;
  for (int i = 1; i <= 100; ++i) h.record(static_cast<double>(i));
  std::map<std::string, metrics::Histogram> histograms;
  histograms["svc.latency"] = h;
  const std::string table =
      metrics::formatHistogramTable(histograms, "ms");
  EXPECT_NE(table.find("histogram"), std::string::npos);
  EXPECT_NE(table.find("p99"), std::string::npos);
  EXPECT_NE(table.find("svc.latency"), std::string::npos);
  EXPECT_NE(table.find("(ms)"), std::string::npos);
  EXPECT_NE(table.find("100"), std::string::npos);  // count column
}

TEST(PerCpeCounters, FunctionalMeshRunInvariants) {
  core::SwGemmCompiler compiler;
  const core::CompiledKernel kernel = compiler.compile(core::CodegenOptions{});
  const sunway::ArchConfig arch = compiler.arch();

  const core::PaddedShape padded =
      core::padShape(64, 64, 64, kernel.options, arch);
  sunway::MeshSimulator mesh(arch, /*functional=*/true);
  mesh.memory().add(
      sunway::HostArray::allocate("A", 1, padded.m, padded.k));
  mesh.memory().add(
      sunway::HostArray::allocate("B", 1, padded.k, padded.n));
  mesh.memory().add(
      sunway::HostArray::allocate("C", 1, padded.m, padded.n));
  const auto params =
      rt::bindParams(kernel.program, padded.m, padded.n, padded.k, 1);
  const sunway::MeshRunResult result =
      mesh.run([&](sunway::CpeServices& services) {
        rt::runCpeProgram(kernel.program, params, rt::ExecScalars{1.0, 0.0},
                          services);
      });

  ASSERT_EQ(result.perCpeCounters.size(),
            static_cast<std::size_t>(arch.meshSize()));
  sunway::CpeCounters resummed;
  for (const sunway::CpeCounters& cpe : result.perCpeCounters) {
    // Active time cannot exceed the mesh wall clock: the CPE's logical
    // clock only ever advances, and the wall clock is the slowest clock
    // plus spawn overhead.
    EXPECT_LE(cpe.computeTicks + cpe.waitStallTicks, result.time);
    EXPECT_GE(cpe.computeTicks, 0);
    EXPECT_GE(cpe.waitStallTicks, 0);
    resummed.add(cpe);
  }
  // Integer ticks: the per-CPE counters re-sum to the totals exactly.
  EXPECT_EQ(resummed, result.totals);
  // The exposed-stall split attributes every wait tick to a cause
  // (fault-free run: no sync delays leak into the wait total).
  EXPECT_EQ(result.totals.dmaStallTicks + result.totals.rmaStallTicks +
                result.totals.retryStallTicks,
            result.totals.waitStallTicks);
  EXPECT_GE(result.totals.syncStallTicks, 0);

  const metrics::DerivedRunMetrics m =
      rt::deriveRunMetrics(result.totals, result.time, arch.meshSize(),
                           kernel.program, arch.spmBytes);
  EXPECT_GE(m.overlapPct, 0.0);
  EXPECT_LE(m.overlapPct, 100.0);
  EXPECT_GE(m.stallPct, 0.0);
  EXPECT_LE(m.stallPct, 100.0);
  EXPECT_GT(m.spmHighWaterBytes, 0);
  EXPECT_LE(m.spmHighWaterBytes, arch.spmBytes);
}

TEST(OverlapGauge, LatencyHidingStrictlyRaisesOverlap) {
  core::SwGemmCompiler compiler;
  core::CodegenOptions hiding;   // defaults enable the full pipeline
  core::CodegenOptions exposed = hiding;
  exposed.hideLatency = false;

  const core::GemmProblem problem{4096, 4096, 4096, 1};
  const rt::RunOutcome fast =
      core::estimateGemm(compiler.compile(hiding), compiler.arch(), problem);
  const rt::RunOutcome slow =
      core::estimateGemm(compiler.compile(exposed), compiler.arch(), problem);

  EXPECT_GT(fast.metrics.overlapPct, slow.metrics.overlapPct);
  EXPECT_LT(fast.metrics.stallPct, slow.metrics.stallPct);
  EXPECT_GT(fast.gflops, slow.gflops);
  for (const rt::RunOutcome* o : {&fast, &slow}) {
    EXPECT_GE(o->metrics.overlapPct, 0.0);
    EXPECT_LE(o->metrics.overlapPct, 100.0);
    EXPECT_LE(o->metrics.spmHighWaterBytes, compiler.arch().spmBytes);
  }
}

}  // namespace
}  // namespace sw
