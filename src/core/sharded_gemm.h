// Multi-core-group sharded GEMM execution (§2.1: SW26010Pro packs six
// core groups per processor, linked by the network on chip).
//
// This layer decomposes one GEMM across core groups with a 2D block grid
// over C (rows × columns, not just row panels) plus an optional K split,
// and executes the group sub-problems *concurrently*: one worker thread
// per group, each driving its own MeshSimulator through the regular
// runGemmFunctional path (the plan and tree-walk engines both reuse it).
//
// Bit-identity contract (the whole point): a sharded run produces results
// byte-for-byte equal to the single-group run of the same kernel.
//   * M/N splits are free — each C element is still accumulated by exactly
//     one micro-kernel chain in the same k order.
//   * K splits are executed as a *chained reduction*: the chunks of one C
//     block run sequentially (possibly on different groups), chunk 0 with
//     the caller's beta and every later chunk with beta == 1 on the
//     previous partial.  Chunk boundaries are aligned to the kernel's
//     K padding unit (stripFactor·tileK with RMA, tileK without), so the
//     per-element operation sequence matches the single run exactly.
//     A naive partial-sum merge would NOT be bit-identical (one merged add
//     versus per-tile adds), which is why no tree reduction exists here.
//
// Contention model: while `g` groups stream concurrently, each sees
// ArchConfig::groupDdrBandwidth(g) instead of its full channel (the node
// DDR pool is shared), and block hand-off across groups is charged to the
// NoC.  Timing-only — functional results never depend on bandwidth.
//
// Fault domains: each group's mesh is its own fault domain.  A group
// whose mesh aborts (deadlock or protocol violation) is logged at
// node level with the stuck group's per-CPE state dump, and its shard is
// re-executed fault-free on the same group; other groups' C blocks are
// never touched by the failure.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"

namespace sw::core {

struct ShardedConfig {
  /// Concurrent core groups to shard across (1..arch.coreGroups).
  int groups = 1;
  /// K chunks per C block (chained reduction); 1 disables the K split.
  std::int64_t kSplit = 1;
  /// Engine / pad-mode applied to every group's mesh runs.
  /// `run.faultPlan` is ignored; use `groupFaultPlan` + `faultGroup` to
  /// target one group's fault domain.
  FunctionalRunConfig run;
  /// Fault plan installed on `faultGroup`'s mesh only (per-group fault
  /// domain); nullptr disables injection everywhere.
  std::shared_ptr<const sunway::FaultPlan> groupFaultPlan;
  int faultGroup = -1;
};

/// One unit of work: C block (`block`) × K chunk (`chunk`), assigned to
/// worker `group`.  Chunks of the same block form a sequential chain.
struct Shard {
  int block = 0;
  std::int64_t chunk = 0;
  int group = 0;
  std::int64_t m0 = 0, bm = 0;  // C row range  [m0, m0+bm)
  std::int64_t n0 = 0, bn = 0;  // C col range  [n0, n0+bn)
  std::int64_t k0 = 0, bk = 0;  // K  range     [k0, k0+bk)
};

struct ShardPlan {
  int rowBlocks = 1;
  int colBlocks = 1;
  std::int64_t kChunks = 1;
  /// K rounding unit the chunk boundaries are aligned to.
  std::int64_t kUnit = 1;
  std::vector<Shard> shards;

  [[nodiscard]] int blocks() const { return rowBlocks * colBlocks; }
  /// Groups that can actually stream at once: chained chunks serialise,
  /// so concurrency is bounded by the number of C blocks.
  [[nodiscard]] int concurrency(int groups) const {
    const int cap = blocks() < groups ? blocks() : groups;
    return cap < 1 ? 1 : cap;
  }
};

struct ShardedOutcome {
  double seconds = 0.0;
  double gflops = 0.0;
  int groupsUsed = 0;        // worker threads that received shards
  int concurrentGroups = 0;  // streaming concurrency used for derating
  int rowBlocks = 1;
  int colBlocks = 1;
  std::int64_t kChunks = 1;
  /// Critical-path split: slowest group's mesh time and its NoC hand-off
  /// time (zero when groups == 1 — no NoC crossing happens).
  double computeSeconds = 0.0;
  double communicationSeconds = 0.0;
  /// Effective per-group DDR bandwidth fraction under contention.
  double contentionDerate = 1.0;
  sunway::CpeCounters counters;  // summed over all shards
  perf::PerfReport report;       // multi-group roofline
  std::int64_t hostCopyBytes = 0;
  /// RunOutcome's host RMA-copy and dirty-SPM bytes, summed over shards.
  std::int64_t hostRmaCopyBytes = 0;
  std::int64_t hostSpmDirtyBytes = 0;
  int shardsRun = 0;

  /// Deadlock/protocol aborts recovered by a fault-free re-run.
  struct GroupFailure {
    int group = -1;
    std::string shard;  // "block 2 chunk 0 [m 64..128 n 0..96 k 0..64]"
    std::string error;  // carries the per-CPE state dump
  };
  std::vector<GroupFailure> failures;
};

/// Plan the shard grid for `problem` on `groups` groups: a near-square
/// factorisation of the group count over C (clamped to the matrix
/// extents) and `kSplit` chunks aligned to the kernel's K padding unit.
/// Exposed for tests; both execution paths plan identically.
[[nodiscard]] ShardPlan planShards(const CompiledKernel& kernel,
                                   const sunway::ArchConfig& arch,
                                   const GemmProblem& problem, int groups,
                                   std::int64_t kSplit);

/// Execute the sharded GEMM functionally: thread-per-group workers over
/// per-group mesh simulators, bit-identical to the single-group run.
/// Array layouts match runGemmFunctional (transposed operands use their
/// transposed layouts; beta == 0 never reads C).
ShardedOutcome runShardedFunctional(const CompiledKernel& kernel,
                                    const sunway::ArchConfig& arch,
                                    const ShardedConfig& config,
                                    const GemmProblem& problem,
                                    std::span<const double> a,
                                    std::span<const double> b,
                                    std::span<double> c);

/// Timing estimate of the sharded execution with the same plan, per-group
/// contention derating and NoC model as the functional path.  With
/// groups == 1 and kSplit == 1 this is *exactly* estimateGemm — no NoC
/// charge, no derating (a one-group shard costs the single-group
/// estimate).
ShardedOutcome estimateSharded(const CompiledKernel& kernel,
                               const sunway::ArchConfig& arch,
                               const ShardedConfig& config,
                               const GemmProblem& problem);

}  // namespace sw::core
