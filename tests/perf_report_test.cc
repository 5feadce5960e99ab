// Tests of the performance-report layer: attribution buckets sum to 100%
// on real mesh and estimator runs, the overlap formula on hand-made
// counters and the §6 property that latency hiding strictly raises it,
// the roofline verdict flips between DMA-bound (small K) and
// compute-bound (large K), the JSON rendering is well-formed and
// schema-stable, the text rendering shows the JSON's overlap, degenerate
// samples never divide by zero, and the shape is the problem asked for,
// apart from the padded extents.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "json_checker_test_util.h"
#include "runtime/executor.h"
#include "support/perf_report.h"

namespace sw {
namespace {

perf::MachineModel testMachine() {
  return rt::machineModelFromArch(sunway::ArchConfig{});
}

TEST(MachineModel, RidgeDerivesFromArch) {
  const sunway::ArchConfig arch;
  const perf::MachineModel machine = rt::machineModelFromArch(arch);
  EXPECT_NEAR(machine.peakGflops,
              arch.peakFlops() * arch.asmKernelEfficiency / 1e9, 1e-9);
  EXPECT_NEAR(machine.peakDmaGBps, arch.ddrBandwidthBytesPerSec / 1e9, 1e-9);
  EXPECT_EQ(machine.meshSize, arch.meshSize());
  EXPECT_NEAR(machine.ridgeFlopsPerByte(),
              machine.peakGflops / machine.peakDmaGBps, 1e-9);
}

TEST(PerfReport, AttributionSumsTo100OnHandMadeSample) {
  perf::RunSample sample;
  sample.kernel = "t";
  sample.engine = "estimator";
  sample.wallSeconds = 10.0;
  sample.cpeCount = 1;
  sample.computeSeconds = 4.0;
  sample.dmaStallSeconds = 2.0;
  sample.rmaStallSeconds = 1.0;
  sample.syncStallSeconds = 0.5;
  sample.retryStallSeconds = 0.5;
  const perf::PerfReport report = perf::buildPerfReport(sample, testMachine());
  EXPECT_NEAR(report.attribution.computePct, 40.0, 1e-9);
  EXPECT_NEAR(report.attribution.exposedDmaPct, 20.0, 1e-9);
  EXPECT_NEAR(report.attribution.exposedRmaPct, 10.0, 1e-9);
  EXPECT_NEAR(report.attribution.syncPct, 5.0, 1e-9);
  EXPECT_NEAR(report.attribution.retryPct, 5.0, 1e-9);
  EXPECT_NEAR(report.attribution.otherPct, 20.0, 1e-9);
  EXPECT_NEAR(report.attribution.sum(), 100.0, 1e-9);
  EXPECT_EQ(report.bottleneck.name, "compute");
  EXPECT_NE(report.bottleneck.evidence.find("%"), std::string::npos);
}

TEST(PerfReport, DegenerateSampleIsAllZeroNeverNaN) {
  const perf::RunSample empty;  // zero wall time, zero counters
  const perf::PerfReport report = perf::buildPerfReport(empty, testMachine());
  EXPECT_EQ(report.attribution.sum(), 0.0);
  EXPECT_EQ(report.roofline.achievedGflops, 0.0);
  EXPECT_EQ(report.roofline.arithmeticIntensity, 0.0);
  EXPECT_EQ(report.roofline.ceilingUtilization, 0.0);
  EXPECT_EQ(report.roofline.verdict, "latency-bound");
  // Every rendered number must be parseable (no nan/inf tokens).
  EXPECT_TRUE(testutil::JsonChecker(report.toJson()).valid());
}

/// A report built from raw counters, as runOnMesh and estimateTiming build
/// theirs.
perf::PerfReport reportFromCounters(const sunway::CpeCounters& totals,
                                    double wallSeconds, int cpeCount) {
  return rt::buildRunReport(codegen::KernelProgram{}, "estimator", {},
                            sunway::ticksFromSeconds(wallSeconds), cpeCount,
                            /*reportedFlops=*/0.0, totals,
                            sunway::ArchConfig{});
}

TEST(Overlap, FormulaOnKnownCounters) {
  sunway::CpeCounters totals;
  totals.computeTicks = sunway::ticksFromSeconds(4.0);
  totals.dmaBusyTicks = sunway::ticksFromSeconds(2.0);
  totals.rmaBusyTicks = sunway::ticksFromSeconds(1.0);
  totals.waitStallTicks = sunway::ticksFromSeconds(0.5);
  const perf::PerfReport report = reportFromCounters(totals, 5.0, 1);
  // busy = 3, hidden = 3 - 0.5 = 2.5.
  EXPECT_NEAR(report.overlapPct, 100.0 * 2.5 / 3.0, 1e-9);
  EXPECT_NEAR(report.attribution.computePct, 80.0, 1e-9);
}

TEST(Overlap, StallHeavyScheduleHasLowOverlap) {
  sunway::CpeCounters totals;
  totals.computeTicks = sunway::ticksFromSeconds(1.0);
  totals.dmaBusyTicks = sunway::ticksFromSeconds(2.0);
  totals.waitStallTicks = sunway::ticksFromSeconds(2.0);  // all DMA exposed
  EXPECT_NEAR(reportFromCounters(totals, 3.0, 1).overlapPct, 0.0, 1e-9);
}

TEST(Overlap, IdleCountersAreZeroNeverNaN) {
  // An idle run (zero busy, zero active, zero wall clock) must read as 0%
  // everywhere — historically these divisions produced NaN gauges.
  const perf::PerfReport report =
      reportFromCounters(sunway::CpeCounters{}, 0.0, 64);
  EXPECT_EQ(report.overlapPct, 0.0);
  EXPECT_EQ(report.attribution.computePct, 0.0);
  EXPECT_TRUE(std::isfinite(report.overlapPct));
  EXPECT_NE(report.toJson().find("\"overlap_pct\":0,"), std::string::npos);
}

TEST(Overlap, LatencyHidingStrictlyRaisesOverlap) {
  core::SwGemmCompiler compiler;
  core::CodegenOptions hiding;   // defaults enable the full pipeline
  core::CodegenOptions exposed = hiding;
  exposed.hideLatency = false;

  const core::GemmProblem problem{4096, 4096, 4096, 1};
  const rt::RunOutcome fast =
      core::estimateGemm(compiler.compile(hiding), compiler.arch(), problem);
  const rt::RunOutcome slow =
      core::estimateGemm(compiler.compile(exposed), compiler.arch(), problem);

  EXPECT_GT(fast.report.overlapPct, slow.report.overlapPct);
  EXPECT_GT(fast.gflops, slow.gflops);
  for (const rt::RunOutcome* o : {&fast, &slow}) {
    EXPECT_GE(o->report.overlapPct, 0.0);
    EXPECT_LE(o->report.overlapPct, 100.0);
  }
}

TEST(PerfReport, EstimatorRunBucketsSumTo100) {
  core::SwGemmCompiler compiler;
  const core::CompiledKernel kernel = compiler.compile(core::CodegenOptions{});
  const rt::RunOutcome outcome = core::estimateGemm(
      kernel, compiler.arch(), core::GemmProblem{1024, 1024, 1024, 1});
  EXPECT_EQ(outcome.report.engine, "estimator");
  EXPECT_EQ(outcome.report.kernel, kernel.program.name);
  EXPECT_EQ(outcome.report.m, 1024);
  EXPECT_NEAR(outcome.report.attribution.sum(), 100.0, 0.1);
  EXPECT_GT(outcome.report.attribution.computePct, 0.0);
  EXPECT_NEAR(outcome.report.roofline.achievedGflops, outcome.gflops, 1e-6);
}

TEST(PerfReport, MeshRunBucketsSumTo100) {
  core::SwGemmCompiler compiler;
  const core::CompiledKernel kernel = compiler.compile(core::CodegenOptions{});
  const core::PaddedShape padded =
      core::padShape(1, 1, 1, kernel.options, compiler.arch());
  const std::int64_t m = padded.m, n = padded.n, k = 2 * padded.k;
  std::vector<double> a(static_cast<std::size_t>(m * k), 0.5);
  std::vector<double> b(static_cast<std::size_t>(k * n), 0.25);
  std::vector<double> c(static_cast<std::size_t>(m * n), 0.0);
  const rt::RunOutcome outcome = core::runGemmFunctional(
      kernel, compiler.arch(), core::GemmProblem{m, n, k, 1}, a, b, c);
  EXPECT_EQ(outcome.report.engine, "mesh");
  EXPECT_NEAR(outcome.report.attribution.sum(), 100.0, 0.1);
  EXPECT_GT(outcome.report.attribution.computePct, 0.0);
  EXPECT_GT(outcome.report.wallSeconds, 0.0);
}

// The report names the problem asked for; the extents the kernel ran at
// are its padded shape, printed only when they differ.
TEST(PerfReport, PaddedRunNamesTheRequestedShape) {
  core::SwGemmCompiler compiler;
  const core::CompiledKernel kernel = compiler.compile(core::CodegenOptions{});
  std::vector<double> a(100 * 64, 0.5), b(64 * 100, 0.25), c(100 * 100, 0.0);
  const rt::RunOutcome outcome = core::runGemmFunctional(
      kernel, compiler.arch(), core::GemmProblem{100, 100, 64, 1}, a, b, c);
  const perf::PerfReport& report = outcome.report;
  EXPECT_EQ(report.m, 100);
  EXPECT_EQ(report.n, 100);
  EXPECT_EQ(report.k, 64);
  EXPECT_EQ(report.batch, 1);
  EXPECT_EQ(report.paddedM, 512);
  EXPECT_EQ(report.paddedN, 512);
  EXPECT_EQ(report.paddedK, 256);
  EXPECT_TRUE(report.padded());
  EXPECT_EQ(report.wallSeconds, outcome.seconds);
  const std::string json = report.toJson();
  EXPECT_TRUE(testutil::JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"shape\":{\"m\":100,\"n\":100,\"k\":64,\"batch\":1},"
                      "\"padded_shape\":{\"m\":512,\"n\":512,\"k\":256}"),
            std::string::npos)
      << json;
  const std::string text = report.toText();
  EXPECT_NE(text.find("  shape                    100x100x64 batch 1\n"
                      "  padded to                512x512x256\n"),
            std::string::npos)
      << text;
}

TEST(PerfReport, PaddedEstimateNamesTheRequestedShape) {
  core::SwGemmCompiler compiler;
  const core::CompiledKernel kernel = compiler.compile(core::CodegenOptions{});
  const rt::RunOutcome outcome = core::estimateGemm(
      kernel, compiler.arch(), core::GemmProblem{1000, 1000, 1000, 1});
  const std::string json = outcome.report.toJson();
  EXPECT_NE(json.find("\"shape\":{\"m\":1000,\"n\":1000,\"k\":1000,"
                      "\"batch\":1},\"padded_shape\":{\"m\":1024,"
                      "\"n\":1024,\"k\":1024}"),
            std::string::npos)
      << json;
  EXPECT_NE(outcome.report.toText().find("  padded to                "
                                         "1024x1024x1024\n"),
            std::string::npos);
}

TEST(PerfReport, EdgeTileRunIsNotPadded) {
  core::SwGemmCompiler compiler;
  core::CodegenOptions options;
  options.edgeTiles = true;
  const core::CompiledKernel kernel = compiler.compile(options);
  std::vector<double> a(100 * 100, 0.5), b(100 * 100, 0.25),
      c(100 * 100, 0.0);
  const rt::RunOutcome outcome = core::runGemmFunctional(
      kernel, compiler.arch(), core::GemmProblem{100, 100, 100, 1}, a, b, c);
  const perf::PerfReport& report = outcome.report;
  EXPECT_EQ(report.m, 100);
  EXPECT_EQ(report.batch, 1);
  EXPECT_EQ(report.paddedM, 100);
  EXPECT_EQ(report.paddedK, 100);
  EXPECT_FALSE(report.padded());
  EXPECT_NE(report.toJson().find("\"padded_shape\":{\"m\":100,\"n\":100,"
                                 "\"k\":100}"),
            std::string::npos);
  const std::string text = report.toText();
  EXPECT_NE(text.find("shape                    100x100x100 batch 1"),
            std::string::npos);
  EXPECT_EQ(text.find("padded to"), std::string::npos) << text;
}

TEST(PerfReport, VerdictFlipsWithArithmeticIntensity) {
  core::SwGemmCompiler compiler;
  const core::CompiledKernel kernel = compiler.compile(core::CodegenOptions{});

  // Small K: every C tile is amortised over few flops, the DMA roof sits
  // below the compute peak -> dma-bound.
  const rt::RunOutcome smallK = core::estimateGemm(
      kernel, compiler.arch(), core::GemmProblem{4096, 4096, 256, 1});
  EXPECT_LT(smallK.report.roofline.arithmeticIntensity,
            smallK.report.roofline.ridgeFlopsPerByte);
  EXPECT_EQ(smallK.report.roofline.verdict, "dma-bound");

  // Large K: arithmetic intensity beyond the ridge -> compute-bound.
  const rt::RunOutcome largeK = core::estimateGemm(
      kernel, compiler.arch(), core::GemmProblem{4096, 4096, 16384, 1});
  EXPECT_GT(largeK.report.roofline.arithmeticIntensity,
            largeK.report.roofline.ridgeFlopsPerByte);
  EXPECT_EQ(largeK.report.roofline.verdict, "compute-bound");

  // Without latency hiding the same large-K shape leaves the ceilings
  // unexplained: exposed stalls dominate -> latency-bound.
  core::CodegenOptions exposed;
  exposed.hideLatency = false;
  const rt::RunOutcome stalled = core::estimateGemm(
      compiler.compile(exposed), compiler.arch(),
      core::GemmProblem{4096, 4096, 4096, 1});
  EXPECT_EQ(stalled.report.roofline.verdict, "latency-bound");
  EXPECT_LT(stalled.report.roofline.ceilingUtilization,
            perf::kCeilingExplainsThreshold);
}

TEST(PerfReport, JsonIsWellFormedAndSchemaStable) {
  core::SwGemmCompiler compiler;
  const core::CompiledKernel kernel = compiler.compile(core::CodegenOptions{});
  const rt::RunOutcome outcome = core::estimateGemm(
      kernel, compiler.arch(), core::GemmProblem{1024, 1024, 8192, 1});
  const std::string json = outcome.report.toJson();
  EXPECT_TRUE(testutil::JsonChecker(json).valid()) << json;
  // schema_version leads the object so downstream parsers can dispatch.
  EXPECT_EQ(json.rfind("{\"schema_version\":1,", 0), 0u) << json;
  for (const char* key :
       {"\"attribution\":", "\"roofline\":", "\"bottleneck\":",
        "\"counters\":", "\"compute_pct\":", "\"achieved_gflops\":",
        "\"verdict\":", "\"dma_messages\":", "\"wall_seconds\":"})
    EXPECT_NE(json.find(key), std::string::npos) << key;
  // Overlap sits at the top level: the attribution buckets alone sum to
  // 100, and overlap divides engine time, not CPE time.
  const std::size_t overlap = json.find("\"overlap_pct\":");
  EXPECT_NE(overlap, std::string::npos) << json;
  EXPECT_LT(overlap, json.find("\"attribution\":")) << json;
  EXPECT_EQ(outcome.report.schemaVersion, perf::kPerfReportSchemaVersion);
}

TEST(PerfReport, TextRenderingNamesTheBottleneck) {
  core::SwGemmCompiler compiler;
  const core::CompiledKernel kernel = compiler.compile(core::CodegenOptions{});
  const rt::RunOutcome outcome = core::estimateGemm(
      kernel, compiler.arch(), core::GemmProblem{1024, 1024, 1024, 1});
  const std::string text = outcome.report.toText();
  EXPECT_NE(text.find("time attribution"), std::string::npos);
  EXPECT_NE(text.find("roofline:"), std::string::npos);
  EXPECT_NE(text.find("top bottleneck:"), std::string::npos);
  EXPECT_NE(text.find(outcome.report.roofline.verdict), std::string::npos);
  EXPECT_NE(text.find(outcome.report.bottleneck.name), std::string::npos);
}

TEST(PerfReport, TextShowsTheJsonOverlap) {
  core::SwGemmCompiler compiler;
  core::CodegenOptions exposed;
  exposed.hideLatency = false;
  for (const core::CodegenOptions& options :
       {core::CodegenOptions{}, exposed}) {
    const rt::RunOutcome outcome =
        core::estimateGemm(compiler.compile(options), compiler.arch(),
                           core::GemmProblem{1024, 1024, 1024, 1});
    const std::string json = outcome.report.toJson();
    const std::string key = "\"overlap_pct\":";
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << json;
    const double jsonOverlap = std::strtod(json.c_str() + at + key.size(),
                                           nullptr);
    char expected[96];
    std::snprintf(expected, sizeof(expected), "  %-24s %12.1f %%", "overlap",
                  jsonOverlap);
    const std::string text = outcome.report.toText();
    EXPECT_NE(text.find(expected), std::string::npos)
        << expected << "\n" << text;
    // The line sits with the attribution, ahead of its table.
    EXPECT_LT(text.find("  overlap "), text.find("time attribution")) << text;
  }
}

}  // namespace
}  // namespace sw
