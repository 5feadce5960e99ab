// SW26010Pro core-group architecture model (§2.1, Fig.1).
//
// One core group (cluster) = 1 MPE + an 8x8 CPE mesh.  Each CPE owns a
// 256 KB software-managed SPM, a DMA engine to the cluster's DDR4 memory,
// and an RMA engine for intra-mesh communication.  The paper withholds the
// processor's exact peak; this model's defaults are calibrated so the
// *relationships* the paper reports (the breakdown factors of §8.1, the
// latency-hiding overlap counts of §6, the xMath crossovers of §8.2)
// reproduce.  Every quantity is a plain named field so ablation benches can
// sweep it.  The fields are plain seconds and rates; the duration
// functions below round each op's time once into SimTime ticks.
#pragma once

#include <algorithm>
#include <cstdint>

#include "sunway/sim_time.h"

namespace sw::sunway {

struct ArchConfig {
  // --- mesh geometry ---
  int meshRows = 8;
  int meshCols = 8;

  // --- per-CPE resources ---
  std::int64_t spmBytes = 256 * 1024;  // SW26010Pro SPM (§2.1)

  // --- compute rates ---
  double cpeFrequencyHz = 2.1e9;
  /// Vector FMA throughput of one CPE (512-bit SIMD, dual pipe): DP flops
  /// per cycle at peak.
  double cpeFlopsPerCycle = 16.0;
  /// Fraction of peak the vendor assembly micro-kernel sustains once data
  /// is in SPM (register blocking + instruction scheduling, §7.2).
  double asmKernelEfficiency = 0.99;
  /// Scalar flops per cycle of the naive compiler-scheduled loop nest
  /// (the --no-use-asm path; load/store bound).
  double naiveFlopsPerCycle = 0.88;
  /// Element-wise SPM operations (quantization, activation, scaling).
  double elementwiseFlopsPerCycle = 8.0;

  // --- DMA: DDR4 <-> SPM (§4) ---
  /// Aggregate main-memory bandwidth of the core group.  Each CPE owns one
  /// DMA engine running at a 1/64 share (messages from the same CPE
  /// serialise on its engine, so total bandwidth is conserved when the
  /// whole mesh streams).
  double ddrBandwidthBytesPerSec = 36.0e9;
  double dmaStartupSeconds = 1.5e-6;  // per-message latency
  /// Extra per-row overhead of strided (non-contiguous) transfers.
  double dmaStridePenaltySecondsPerRow = 10.0e-9;

  // --- RMA: SPM <-> SPM across the mesh (§5) ---
  /// Effective per-broadcast bandwidth.  The row and column networks are
  /// independent, so an A row-broadcast and a B column-broadcast proceed
  /// concurrently (§6.1: "the broadcasts of A and B can be launched
  /// together").
  double rmaBandwidthBytesPerSec = 80.0e9;
  double rmaStartupSeconds = 0.1e-6;

  // --- control ---
  double syncSeconds = 0.05e-6;         // mesh barrier
  double spawnOverheadSeconds = 25e-6;  // athread_spawn + join (per launch)

  // --- MPE (used by library baselines that run element-wise ops there) ---
  double mpeFlopsPerCycle = 4.0;
  double mpeFrequencyHz = 2.1e9;
  /// Effective bandwidth of an MPE scalar element-wise pass over main
  /// memory (the unfused prologue/epilogue baseline of §8.4 runs there).
  double mpeMemBandwidthBytesPerSec = 2.5e9;

  // --- node level: SW26010Pro packs six core groups on one chip (§2.1) ---
  /// Core groups available on the node.  Sharded execution may use up to
  /// this many concurrent meshes.
  int coreGroups = 6;
  /// Aggregate DDR bandwidth of the whole node.  The per-group channels
  /// share ring stops and the memory controllers, so six groups streaming
  /// at once do NOT see 6x the single-group bandwidth: each gets
  /// nodeDdrBandwidthBytesPerSec / groups once the node pool saturates.
  double nodeDdrBandwidthBytesPerSec = 144.0e9;
  /// Network-on-chip linking the core groups (block hand-off between
  /// group sub-problems: operand gathers and C scatters/partials).
  double nocBandwidthBytesPerSec = 25.0e9;
  double nocLatencySeconds = 2.0e-6;

  [[nodiscard]] int meshSize() const { return meshRows * meshCols; }

  /// Theoretical peak of the core group in flops/second.
  [[nodiscard]] double peakFlops() const {
    return meshSize() * cpeFrequencyHz * cpeFlopsPerCycle;
  }

  /// Per-CPE share of main-memory bandwidth when the whole mesh streams.
  [[nodiscard]] double dmaShareBytesPerSec() const {
    return ddrBandwidthBytesPerSec / meshSize();
  }

  /// Effective DDR bandwidth one group sees while `concurrentGroups`
  /// stream simultaneously.  A single group keeps its full channel; past
  /// the point where groups * per-group demand exceeds the node pool,
  /// each group's share drops to an even split of the pool.
  [[nodiscard]] double groupDdrBandwidth(int concurrentGroups) const {
    if (concurrentGroups <= 1) return ddrBandwidthBytesPerSec;
    return std::min(ddrBandwidthBytesPerSec,
                    nodeDdrBandwidthBytesPerSec /
                        static_cast<double>(concurrentGroups));
  }

  /// Fraction of the single-group bandwidth that survives contention
  /// (1.0 when the node pool still covers every group's full channel).
  [[nodiscard]] double contentionDerate(int concurrentGroups) const {
    return groupDdrBandwidth(concurrentGroups) / ddrBandwidthBytesPerSec;
  }

  /// Copy of this config with the DDR bandwidth derated for a group
  /// running alongside `concurrentGroups - 1` other streaming groups.
  /// Timing-only: functional results never depend on bandwidth numbers.
  [[nodiscard]] ArchConfig forConcurrentGroups(int concurrentGroups) const {
    ArchConfig derated = *this;
    derated.ddrBandwidthBytesPerSec = groupDdrBandwidth(concurrentGroups);
    return derated;
  }

  /// Time for one DMA message of `bytes` spread over `rows` strided rows.
  [[nodiscard]] SimTime dmaTime(std::int64_t bytes, std::int64_t rows) const {
    return ticksFromSeconds(
        dmaStartupSeconds +
        static_cast<double>(bytes) / dmaShareBytesPerSec() +
        dmaStridePenaltySecondsPerRow * static_cast<double>(rows));
  }

  /// Time for one RMA broadcast of `bytes` along a row or column.
  [[nodiscard]] SimTime rmaTime(std::int64_t bytes) const {
    return ticksFromSeconds(rmaStartupSeconds +
                            static_cast<double>(bytes) /
                                rmaBandwidthBytesPerSec);
  }

  /// Time to execute `flops` on one CPE at `flopsPerCycle * efficiency`.
  [[nodiscard]] SimTime cpeComputeTime(std::int64_t flops,
                                       double flopsPerCycle,
                                       double efficiency = 1.0) const {
    return ticksFromSeconds(static_cast<double>(flops) /
                            (cpeFrequencyHz * flopsPerCycle * efficiency));
  }

  /// Mesh barrier cost and athread_spawn + join overhead.
  [[nodiscard]] SimTime syncTime() const {
    return ticksFromSeconds(syncSeconds);
  }
  [[nodiscard]] SimTime spawnOverheadTime() const {
    return ticksFromSeconds(spawnOverheadSeconds);
  }

  /// Sustained-efficiency model for a generated MR x NR micro-kernel
  /// variant, calibrated so the vendor block (4, 8) returns
  /// asmKernelEfficiency exactly (timing baselines are unchanged at the
  /// default).  Off-default blocks pay for empty SIMD lanes (NR not a
  /// multiple of the 8-wide vector), too few rows in flight to hide FMA
  /// latency (MR < 4), register pressure past the 32-entry file, and
  /// drift from the 32-element sweet spot.
  [[nodiscard]] double microKernelEfficiency(int mr, int nr) const {
    if (mr == 4 && nr == 8) return asmKernelEfficiency;
    if (mr <= 0 || nr <= 0) return asmKernelEfficiency;
    const double simdLanes = 8.0;
    const double vectors =
        static_cast<double>((nr + static_cast<int>(simdLanes) - 1) /
                            static_cast<int>(simdLanes));
    const double vectorUtil = static_cast<double>(nr) / (simdLanes * vectors);
    const double latencyHide = mr >= 4 ? 1.0 : 0.7 + 0.075 * mr;
    const int regsNeeded = mr * static_cast<int>(vectors) + mr + 2;
    const double pressure = regsNeeded > 30 ? 0.97 : 1.0;
    const double ops = static_cast<double>(mr) * static_cast<double>(nr);
    double balance = ops / 32.0;
    if (balance < 1.0) balance = 1.0 / balance;
    double drift = 1.0;
    for (double b = balance; b >= 2.0; b /= 2.0) drift -= 0.004;
    return asmKernelEfficiency * vectorUtil * latencyHide * pressure * drift;
  }
};

}  // namespace sw::sunway
