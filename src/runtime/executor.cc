#include "runtime/executor.h"

#include <algorithm>

#include "runtime/plan.h"
#include "sunway/estimator.h"
#include "support/error.h"
#include "support/format.h"
#include "support/logging.h"
#include "support/trace.h"

namespace sw::rt {

namespace {

/// Shape bound into `params`, if present (0 when the program has no such
/// parameter — e.g. a non-GEMM kernel).
std::int64_t paramOrZero(const std::map<std::string, std::int64_t>& params,
                         const char* name) {
  auto it = params.find(name);
  return it == params.end() ? 0 : it->second;
}

/// Rethrow a clock-range overflow naming the kernel and the shape.
[[noreturn]] void throwClockRangeFor(
    const codegen::KernelProgram& program,
    const std::map<std::string, std::int64_t>& params,
    const sunway::ClockRangeError& error) {
  std::string shape;
  for (const std::string& name : program.params)
    shape += strCat(shape.empty() ? "" : " ", name, "=",
                    paramOrZero(params, name.c_str()));
  throw sunway::ClockRangeError(strCat("kernel '", program.name, "' at ",
                                       shape, ": ", error.what()));
}

/// The estimator's jumps as the report's steady_state block.
perf::PerfReport::SteadyState steadyStateReport(
    const sunway::SteadyStateStats& stats, sunway::SimTime wall) {
  using sunway::toSeconds;
  perf::PerfReport::SteadyState out;
  out.jumps = stats.jumps;
  out.iterationsJumped = stats.iterationsJumped;
  out.coveredPct =
      metrics::safePct(toSeconds(stats.ticksJumped), toSeconds(wall));
  out.loop = stats.loopVar;
  out.periodIterations = stats.periodIterations;
  out.periodSeconds = toSeconds(stats.periodTicks);
  out.periodExposedDmaPct = metrics::safePct(
      toSeconds(stats.periodDmaStallTicks), toSeconds(stats.periodTicks));
  return out;
}

}  // namespace

void fillSampleCounters(const sunway::CpeCounters& totals,
                        perf::RunSample& sample) {
  using sunway::toSeconds;
  sample.computeSeconds = toSeconds(totals.computeTicks);
  sample.dmaStallSeconds = toSeconds(totals.dmaStallTicks);
  sample.rmaStallSeconds = toSeconds(totals.rmaStallTicks);
  sample.syncStallSeconds = toSeconds(totals.syncStallTicks);
  sample.retryStallSeconds = toSeconds(totals.retryStallTicks);
  sample.dmaBusySeconds = toSeconds(totals.dmaBusyTicks);
  sample.rmaBusySeconds = toSeconds(totals.rmaBusyTicks);
  sample.dmaMessages = totals.dmaMessages;
  sample.dmaBytes = totals.dmaBytes;
  sample.rmaBroadcastsSent = totals.rmaBroadcastsSent;
  sample.rmaBytesSent = totals.rmaBytesSent;
  sample.syncs = totals.syncs;
  sample.microKernelCalls = totals.microKernelCalls;
  sample.faultsInjected = totals.faultsInjected;
  sample.dmaRetries = totals.dmaRetries;
}

perf::PerfReport buildRunReport(
    const codegen::KernelProgram& program, const std::string& engine,
    const std::map<std::string, std::int64_t>& params, sunway::SimTime wall,
    int cpeCount, double reportedFlops, const sunway::CpeCounters& totals,
    const sunway::ArchConfig& config) {
  perf::RunSample sample;
  sample.kernel = program.name;
  sample.engine = engine;
  sample.m = paramOrZero(params, "M");
  sample.n = paramOrZero(params, "N");
  sample.k = paramOrZero(params, "K");
  sample.batch = paramOrZero(params, "BATCH");
  sample.wallSeconds = sunway::toSeconds(wall);
  sample.cpeCount = cpeCount;
  sample.reportedFlops = reportedFlops;
  fillSampleCounters(totals, sample);
  return perf::buildPerfReport(sample, machineModelFromArch(config));
}

perf::MachineModel machineModelFromArch(const sunway::ArchConfig& config) {
  perf::MachineModel machine;
  machine.peakGflops = config.peakFlops() * config.asmKernelEfficiency / 1e9;
  machine.peakDmaGBps = config.ddrBandwidthBytesPerSec / 1e9;
  machine.peakRmaGBps = config.rmaBandwidthBytesPerSec / 1e9;
  machine.meshSize = config.meshSize();
  return machine;
}

perf::MachineModel machineModelFromArch(const sunway::ArchConfig& config,
                                        int concurrentGroups) {
  if (concurrentGroups < 1) concurrentGroups = 1;
  perf::MachineModel machine = machineModelFromArch(config);
  const double groups = static_cast<double>(concurrentGroups);
  machine.peakGflops *= groups;
  machine.peakDmaGBps =
      groups * config.groupDdrBandwidth(concurrentGroups) / 1e9;
  machine.meshSize = concurrentGroups * config.meshSize();
  machine.coreGroups = concurrentGroups;
  return machine;
}

metrics::DerivedRunMetrics deriveRunMetrics(
    const sunway::CpeCounters& totals, sunway::SimTime wall, int cpeCount,
    const codegen::KernelProgram& program, std::int64_t spmBudgetBytes) {
  using sunway::toSeconds;
  metrics::DerivedRunMetrics m;
  const double busy = toSeconds(totals.dmaBusyTicks) +
                      toSeconds(totals.rmaBusyTicks);
  const double waitStall = toSeconds(totals.waitStallTicks);
  const double compute = toSeconds(totals.computeTicks);
  const double hidden = std::clamp(busy - waitStall, 0.0, busy);
  // safePct maps an idle engine (busy == 0) to 0%, never NaN.
  m.overlapPct = metrics::safePct(hidden, busy);
  m.stallPct = metrics::safePct(waitStall, compute + waitStall);
  const double aggregateWall = toSeconds(wall) * static_cast<double>(cpeCount);
  m.computePct = std::min(100.0, metrics::safePct(compute, aggregateWall));
  m.spmHighWaterBytes = program.spmBytesUsed();
  m.spmBudgetBytes = spmBudgetBytes;
  if (spmBudgetBytes > 0)
    m.spmBudgetPct = 100.0 * static_cast<double>(m.spmHighWaterBytes) /
                     static_cast<double>(spmBudgetBytes);
  for (const codegen::SpmBufferDecl& buffer : program.buffers)
    m.perBufferBytes[buffer.set] = buffer.totalBytes();
  return m;
}

std::map<std::string, std::int64_t> bindParams(
    const codegen::KernelProgram& program, std::int64_t m, std::int64_t n,
    std::int64_t k, std::int64_t batch) {
  std::map<std::string, std::int64_t> params;
  for (const std::string& name : program.params) {
    if (name == "M")
      params[name] = m;
    else if (name == "N")
      params[name] = n;
    else if (name == "K")
      params[name] = k;
    else if (name == "BATCH")
      params[name] = batch;
    else
      throwInternal(strCat("unknown program parameter '", name, "'"));
  }
  return params;
}

double gemmFlops(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::int64_t batch) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(n) *
         static_cast<double>(k) * static_cast<double>(batch);
}

RunOutcome runOnMesh(sunway::MeshSimulator& mesh,
                     const codegen::KernelProgram& program,
                     const std::map<std::string, std::int64_t>& params,
                     const ExecScalars& scalars, double reportedFlops,
                     const ExecutionPlan* plan) {
  trace::Span span("run.mesh",
                   {trace::arg("kernel", program.name),
                    trace::arg("engine", plan != nullptr ? "plan" : "tree"),
                    trace::arg("functional",
                               mesh.functional() ? "true" : "false")},
                   "run");
  sunway::MeshRunResult meshResult =
      mesh.run([&](sunway::CpeServices& services) {
        if (plan != nullptr)
          runCpePlan(*plan, params, scalars, services);
        else
          runCpeProgram(program, params, scalars, services);
      });
  RunOutcome outcome;
  outcome.engine = plan != nullptr ? "plan" : "tree";
  outcome.time = meshResult.time;
  outcome.seconds = sunway::toSeconds(meshResult.time);
  outcome.gflops = metrics::safeDiv(reportedFlops, outcome.seconds) / 1e9;
  outcome.counters = meshResult.totals;
  outcome.hostRmaCopyBytes = meshResult.hostRmaCopyBytes;
  outcome.hostSpmDirtyBytes = meshResult.hostSpmDirtyBytes;
  outcome.metrics =
      deriveRunMetrics(meshResult.totals, meshResult.time,
                       mesh.config().meshSize(), program,
                       mesh.config().spmBytes);
  outcome.metrics.publish(metrics::MetricsRegistry::global(), "run.mesh.");
  outcome.report =
      buildRunReport(program, "mesh", params, meshResult.time,
                     mesh.config().meshSize(), reportedFlops,
                     meshResult.totals, mesh.config());
  // Resilience counters accumulate across runs (unlike the per-run gauges
  // above) so a degrading service call keeps the full fault history.
  if (meshResult.totals.faultsInjected > 0)
    metrics::MetricsRegistry::global().add(
        "fault.injected", static_cast<double>(meshResult.totals.faultsInjected));
  if (meshResult.totals.dmaRetries > 0)
    metrics::MetricsRegistry::global().add(
        "dma.retries", static_cast<double>(meshResult.totals.dmaRetries));
  SW_DEBUG("executor", "event=mesh_run kernel=", program.name,
           " sim_seconds=", outcome.seconds, " gflops=", outcome.gflops,
           " overlap_pct=", outcome.metrics.overlapPct,
           " stall_pct=", outcome.metrics.stallPct);
  return outcome;
}

RunOutcome estimateTiming(const sunway::ArchConfig& config,
                          const codegen::KernelProgram& program,
                          const std::map<std::string, std::int64_t>& params,
                          double reportedFlops, const ExecutionPlan* plan) {
  trace::Span span("run.estimate",
                   {trace::arg("kernel", program.name),
                    trace::arg("engine", plan != nullptr ? "plan" : "tree")},
                   "run");
  sunway::SymmetricCpeServices services(config);
  RunOutcome outcome;
  try {
    if (plan != nullptr)
      runCpePlan(*plan, params, ExecScalars{}, services);
    else
      runCpeProgram(program, params, ExecScalars{}, services);
    outcome.time = services.total();
  } catch (const sunway::ClockRangeError& error) {
    throwClockRangeFor(program, params, error);
  }
  outcome.engine = plan != nullptr ? "plan" : "tree";
  outcome.seconds = sunway::toSeconds(outcome.time);
  outcome.gflops = metrics::safeDiv(reportedFlops, outcome.seconds) / 1e9;
  outcome.counters = services.counters();
  outcome.metrics = deriveRunMetrics(outcome.counters, outcome.time,
                                     /*cpeCount=*/1, program,
                                     config.spmBytes);
  outcome.metrics.publish(metrics::MetricsRegistry::global(),
                          "run.estimate.");
  outcome.report =
      buildRunReport(program, "estimator", params, outcome.time,
                     /*cpeCount=*/1, reportedFlops, outcome.counters,
                     config);
  outcome.report.steadyState =
      steadyStateReport(services.steadyStateStats(), outcome.time);
  SW_DEBUG("executor", "event=estimate kernel=", program.name,
           " sim_seconds=", outcome.seconds, " gflops=", outcome.gflops,
           " overlap_pct=", outcome.metrics.overlapPct,
           " stall_pct=", outcome.metrics.stallPct);
  return outcome;
}

}  // namespace sw::rt
