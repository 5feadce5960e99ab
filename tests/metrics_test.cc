// Tests of the metrics layer: registry semantics, safe gauge math, the
// --profile table formats, and the per-CPE counter invariants of a
// functional mesh run.  The overlap formula and the §6 property that
// latency hiding strictly raises it are perf_report_test's, since the
// run's PerfReport is the one home of that number.
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

  const perf::PerfReport report = rt::buildRunReport(
      kernel.program, "mesh", params, result.time, arch.meshSize(),
      rt::gemmFlops(padded.m, padded.n, padded.k), result.totals, arch);
  EXPECT_GE(report.overlapPct, 0.0);
  EXPECT_LE(report.overlapPct, 100.0);
  EXPECT_GT(kernel.program.spmBytesUsed(), 0);
  EXPECT_LE(kernel.program.spmBytesUsed(), arch.spmBytes);
}

}  // namespace
}  // namespace sw
