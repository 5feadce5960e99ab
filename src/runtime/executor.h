// High-level execution entry points: run a generated kernel on the
// 64-CPE mesh simulator (functional + timing), or estimate its timing
// with the sequential symmetric model.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "codegen/program.h"
#include "runtime/interpreter.h"
#include "sunway/arch.h"
#include "sunway/mesh.h"
#include "support/metrics.h"
#include "support/perf_report.h"

namespace sw::rt {

struct ExecutionPlan;

/// Which per-CPE engine executes the program: the lowered register-machine
/// plan (default whenever a plan is supplied) or the legacy tree-walking
/// interpreter (the reference semantics).  Both drive the same simulator
/// services, so results, counters and simulated time are identical.
enum class ExecEngine {
  kPlan,
  kTreeWalk,
};

struct RunOutcome {
  /// Simulated SW26010Pro time in ticks, the same in seconds, and the
  /// GFLOPS they imply.
  sunway::SimTime time = 0;
  double seconds = 0.0;
  double gflops = 0.0;
  /// Engine that produced this outcome: "plan" or "tree" (the estimator
  /// reports the engine it stepped with).
  std::string engine = "plan";
  sunway::CpeCounters counters;
  /// Derived gauges (overlap %, stall %, SPM high-water vs. budget,
  /// per-buffer bytes); filled by runOnMesh / estimateTiming.
  metrics::DerivedRunMetrics metrics;
  /// The run's explanation layer: time attribution, roofline position and
  /// top bottleneck (see support/perf_report.h); filled by runOnMesh /
  /// estimateTiming for both engines.
  perf::PerfReport report;
  /// Bytes runGemmFunctional copied between the caller's arrays and padded
  /// shadow arrays (pack + unpack).  Zero on the edge-tile path, which
  /// binds the caller's buffers directly.
  std::int64_t hostCopyBytes = 0;
  /// A functional mesh run's host work inside the mesh
  /// (sunway::MeshRunResult): bytes its RMA copies wrote, summed over
  /// receivers, and SPM bytes it wrote, which the next run re-zeroes.
  /// Zero for estimates.
  std::int64_t hostRmaCopyBytes = 0;
  std::int64_t hostSpmDirtyBytes = 0;
};

/// Roofline ceilings for PerfReport, derived from the architecture model:
/// peak GFLOPS at the asm micro-kernel rate, aggregate DDR bandwidth, and
/// per-broadcast RMA bandwidth.
[[nodiscard]] perf::MachineModel machineModelFromArch(
    const sunway::ArchConfig& config);

/// Multi-group roofline: compute peak scales with the streaming group
/// count while the DMA peak is the contention-derated node aggregate
/// (groups × ArchConfig::groupDdrBandwidth(groups)), so six groups never
/// advertise 6× single-group bandwidth the shared DDR pool cannot supply.
[[nodiscard]] perf::MachineModel machineModelFromArch(
    const sunway::ArchConfig& config, int concurrentGroups);

/// Copy `totals` into `sample`'s counter evidence, times in seconds;
/// shared by single-group and sharded reports.
void fillSampleCounters(const sunway::CpeCounters& totals,
                        perf::RunSample& sample);

/// Build one run's PerfReport from its aggregate counters; shared by the
/// mesh and the estimator.
[[nodiscard]] perf::PerfReport buildRunReport(
    const codegen::KernelProgram& program, const std::string& engine,
    const std::map<std::string, std::int64_t>& params, sunway::SimTime wall,
    int cpeCount, double reportedFlops, const sunway::CpeCounters& totals,
    const sunway::ArchConfig& config);

/// Compute the derived gauges from one run's aggregate counters.
/// `cpeCount` is the number of CPEs the counters were summed over (64 for
/// a mesh run, 1 for the symmetric estimator).
metrics::DerivedRunMetrics deriveRunMetrics(
    const sunway::CpeCounters& totals, sunway::SimTime wall, int cpeCount,
    const codegen::KernelProgram& program, std::int64_t spmBudgetBytes);

/// Bind program parameter names to concrete (padded) sizes.
std::map<std::string, std::int64_t> bindParams(
    const codegen::KernelProgram& program, std::int64_t m, std::int64_t n,
    std::int64_t k, std::int64_t batch = 1);

/// GEMM flop count used for GFLOPS reporting (the convention of §8:
/// 2*M*N*K multiply-adds per batch element).
double gemmFlops(std::int64_t m, std::int64_t n, std::int64_t k,
                 std::int64_t batch = 1);

/// Execute on the mesh simulator.  `mesh.memory()` must already
/// hold the arrays the program accesses when the mesh is functional.  When
/// `plan` is non-null each CPE runs the lowered plan; otherwise the
/// tree-walking interpreter (identical results either way).
RunOutcome runOnMesh(sunway::MeshSimulator& mesh,
                     const codegen::KernelProgram& program,
                     const std::map<std::string, std::int64_t>& params,
                     const ExecScalars& scalars, double reportedFlops,
                     const ExecutionPlan* plan = nullptr);

/// Estimate timing with the sequential symmetric single-CPE model; scales
/// to paper-sized shapes.  `plan` selects the engine as in runOnMesh; the
/// plan engine fast-forwards uniform loop iterations (exactly), the
/// tree-walk steps every op.  A shape whose simulated time leaves the
/// ~9,223 s clock range throws ClockRangeError naming the shape.
RunOutcome estimateTiming(const sunway::ArchConfig& config,
                          const codegen::KernelProgram& program,
                          const std::map<std::string, std::int64_t>& params,
                          double reportedFlops,
                          const ExecutionPlan* plan = nullptr);

}  // namespace sw::rt
