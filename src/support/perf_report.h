// PerfReport — the performance observatory's explanation layer.
//
// Raw counters say *what* happened; PerfReport says *why a run took the
// time it did*, in the style of the paper's §6/§8 analysis:
//
//   * Time attribution: the run's aggregate CPE time (wall clock × CPE
//     count) split into compute / exposed-DMA / exposed-RMA / sync /
//     retry / other buckets that always sum to 100%.  "Exposed" is
//     latency the schedule failed to hide behind compute — exactly what
//     §6's two-level software pipeline drives toward zero.
//   * Roofline position: achieved GFLOPS against the machine model's
//     compute peak and achieved DMA bandwidth against the DDR peak, the
//     run's measured arithmetic intensity against the ridge point, and a
//     verdict — compute-bound, dma-bound, or latency-bound (the steady
//     ceilings do not explain the time; per-message startup and sync do).
//   * The top bottleneck by bucket share, named with counter evidence.
//   * The estimator's steady state: how much of the simulated time exact
//     fast-forward jumps covered, and the innermost jumped loop's period.
//
// The schema is versioned and stable: kPerfReportSchemaVersion only moves
// when a field changes meaning, so bench/baselines/BENCH_trajectory.json
// entries stay comparable across PRs.  This layer is support-only (plain
// numbers in, strings out); runtime/executor.cc adapts CpeCounters and
// ArchConfig into RunSample/MachineModel and hangs the finished report on
// rt::RunOutcome for both engines and the estimator.
#pragma once

#include <cstdint>
#include <string>

namespace sw::perf {

/// Bump when a field changes meaning; additions are backward-compatible.
inline constexpr int kPerfReportSchemaVersion = 1;

/// Verdict thresholds: a run whose achieved GFLOPS reaches this fraction
/// of its roofline ceiling is explained by that ceiling; below it the run
/// is latency-bound (startup costs and exposed waits dominate).
inline constexpr double kCeilingExplainsThreshold = 0.5;

/// The machine's steady-state ceilings, derived from sunway::ArchConfig.
/// With coreGroups > 1 the ceilings describe the concurrent multi-group
/// machine: peakGflops scales with the group count while peakDmaGBps is
/// the contention-derated aggregate (groups × per-group effective share),
/// so the roofline verdicts stay honest at node scale.
struct MachineModel {
  double peakGflops = 0.0;   // all streaming groups, asm micro-kernel rate
  double peakDmaGBps = 0.0;  // aggregate DDR bandwidth after contention
  double peakRmaGBps = 0.0;  // per-broadcast RMA bandwidth
  int meshSize = 64;         // total CPEs across the modeled groups
  int coreGroups = 1;        // concurrent streaming core groups

  /// Arithmetic intensity (flops per DMA byte) where the compute roof and
  /// the DMA roof intersect.
  [[nodiscard]] double ridgeFlopsPerByte() const;
};

/// One run's aggregate evidence, summed over `cpeCount` CPEs.  The
/// estimator simulates one symmetric CPE (cpeCount == 1); its per-CPE
/// counters are scaled by meshSize/cpeCount where mesh-wide totals are
/// needed (DMA bandwidth, arithmetic intensity).
struct RunSample {
  std::string kernel;
  std::string engine;  // "mesh" | "estimator"
  std::int64_t m = 0, n = 0, k = 0, batch = 0;  // 0 = unknown
  double wallSeconds = 0.0;
  int cpeCount = 1;
  double reportedFlops = 0.0;  // 2·M·N·K·batch GFLOPS convention of §8

  double computeSeconds = 0.0;
  double dmaStallSeconds = 0.0;
  double rmaStallSeconds = 0.0;
  double syncStallSeconds = 0.0;
  double retryStallSeconds = 0.0;
  double dmaBusySeconds = 0.0;
  double rmaBusySeconds = 0.0;

  std::int64_t dmaMessages = 0;
  std::int64_t dmaBytes = 0;
  std::int64_t rmaBroadcastsSent = 0;
  std::int64_t rmaBytesSent = 0;
  std::int64_t syncs = 0;
  std::int64_t microKernelCalls = 0;
  std::int64_t faultsInjected = 0;
  std::int64_t dmaRetries = 0;
};

struct PerfReport {
  int schemaVersion = kPerfReportSchemaVersion;
  std::string kernel;
  std::string engine;
  std::int64_t m = 0, n = 0, k = 0, batch = 0;
  /// The extents the kernel ran at: above m/n/k when the run zero-padded
  /// the problem up to the kernel's tile grid (§8.1), equal otherwise.
  std::int64_t paddedM = 0, paddedN = 0, paddedK = 0;
  double wallSeconds = 0.0;

  /// Share of aggregate CPE time (wallSeconds × cpeCount) per bucket, in
  /// [0, 100]; the six buckets sum to 100 whenever the run did anything.
  /// `other` absorbs issue overheads, spawn cost and model slack.
  struct Attribution {
    double computePct = 0.0;
    double exposedDmaPct = 0.0;
    double exposedRmaPct = 0.0;
    double syncPct = 0.0;
    double retryPct = 0.0;
    double otherPct = 0.0;

    [[nodiscard]] double sum() const {
      return computePct + exposedDmaPct + exposedRmaPct + syncPct +
             retryPct + otherPct;
    }
  } attribution;

  struct Roofline {
    double achievedGflops = 0.0;
    double peakGflops = 0.0;
    double achievedDmaGBps = 0.0;  // mesh-wide
    double peakDmaGBps = 0.0;
    double arithmeticIntensity = 0.0;  // measured flops per DMA byte
    double ridgeFlopsPerByte = 0.0;
    /// min(peak, intensity × DMA bandwidth): the roof above this run.
    double ceilingGflops = 0.0;
    /// achieved / ceiling, in [0, 1]-ish (model slack can exceed 1).
    double ceilingUtilization = 0.0;
    /// "compute-bound" | "dma-bound" | "latency-bound".
    std::string verdict;
  } roofline;

  struct Bottleneck {
    std::string name;      // "compute", "exposed-dma", ...
    std::string evidence;  // counter-backed one-liner
  } bottleneck;

  /// Steady-state fast-forward of an estimate (all zero when every op was
  /// stepped, as on the mesh): the jumps, the loop iterations they skipped
  /// and the share of simulated wall time they covered; then the innermost
  /// jumped loop, its period in iterations and simulated seconds, and the
  /// share of that period exposed waiting on DMA.
  struct SteadyState {
    std::int64_t jumps = 0;
    std::int64_t iterationsJumped = 0;
    double coveredPct = 0.0;
    std::string loop;
    int periodIterations = 0;
    double periodSeconds = 0.0;
    double periodExposedDmaPct = 0.0;
  } steadyState;

  // Counter evidence carried verbatim for downstream tooling.
  std::int64_t dmaMessages = 0;
  std::int64_t dmaBytes = 0;
  std::int64_t rmaBroadcastsSent = 0;
  std::int64_t rmaBytesSent = 0;
  std::int64_t syncs = 0;
  std::int64_t microKernelCalls = 0;
  std::int64_t faultsInjected = 0;
  std::int64_t dmaRetries = 0;

  /// True when the kernel ran at larger extents than the problem's.
  [[nodiscard]] bool padded() const {
    return paddedM != m || paddedN != n || paddedK != k;
  }

  /// Single-line-free JSON object (schema_version first); numbers are
  /// always finite, strings escaped.
  [[nodiscard]] std::string toJson() const;
  /// Human table for the CLI's --report text.
  [[nodiscard]] std::string toText() const;
};

/// Attribute `sample` against `machine`.  Never divides by zero: a
/// degenerate sample (zero wall time) yields an all-zero report with the
/// "latency-bound" verdict.
[[nodiscard]] PerfReport buildPerfReport(const RunSample& sample,
                                         const MachineModel& machine);

}  // namespace sw::perf
