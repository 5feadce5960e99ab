#include "core/sharded_gemm.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "support/error.h"
#include "support/format.h"
#include "support/logging.h"
#include "support/math_util.h"

namespace sw::core {

namespace {

struct Range {
  std::int64_t begin = 0;
  std::int64_t extent = 0;
};

/// Split `extent` into `parts` contiguous ranges whose sizes differ by at
/// most one (the first `extent % parts` ranges get the extra element).
std::vector<Range> evenSplit(std::int64_t extent, int parts) {
  std::vector<Range> ranges;
  ranges.reserve(static_cast<std::size_t>(parts));
  const std::int64_t base = extent / parts;
  const std::int64_t extra = extent % parts;
  std::int64_t begin = 0;
  for (int i = 0; i < parts; ++i) {
    const std::int64_t size = base + (i < extra ? 1 : 0);
    ranges.push_back(Range{begin, size});
    begin += size;
  }
  return ranges;
}

/// Copy a [r0, r0+nr) x [c0, c0+nc) sub-block out of every batch element
/// of a batch x rows x cols row-major array.
std::vector<double> gatherBlock(std::span<const double> src,
                                std::int64_t batch, std::int64_t rows,
                                std::int64_t cols, std::int64_t r0,
                                std::int64_t nr, std::int64_t c0,
                                std::int64_t nc) {
  std::vector<double> block(static_cast<std::size_t>(batch * nr * nc));
  for (std::int64_t b = 0; b < batch; ++b)
    for (std::int64_t r = 0; r < nr; ++r) {
      const double* from = src.data() + ((b * rows + r0 + r) * cols + c0);
      double* to = block.data() + ((b * nr + r) * nc);
      std::copy(from, from + nc, to);
    }
  return block;
}

void scatterBlock(std::span<double> dst, std::int64_t batch,
                  std::int64_t rows, std::int64_t cols, std::int64_t r0,
                  std::int64_t nr, std::int64_t c0, std::int64_t nc,
                  const std::vector<double>& block) {
  for (std::int64_t b = 0; b < batch; ++b)
    for (std::int64_t r = 0; r < nr; ++r) {
      const double* from = block.data() + ((b * nr + r) * nc);
      double* to = dst.data() + ((b * rows + r0 + r) * cols + c0);
      std::copy(from, from + nc, to);
    }
}

/// Operand block for one shard, honouring transposed storage: A is
/// batch x K x M when transposeA, B is batch x N x K when transposeB.
std::vector<double> gatherA(std::span<const double> a,
                            const CodegenOptions& options,
                            const GemmProblem& p, const Shard& s) {
  if (options.transposeA)
    return gatherBlock(a, p.batch, p.k, p.m, s.k0, s.bk, s.m0, s.bm);
  return gatherBlock(a, p.batch, p.m, p.k, s.m0, s.bm, s.k0, s.bk);
}

std::vector<double> gatherB(std::span<const double> b,
                            const CodegenOptions& options,
                            const GemmProblem& p, const Shard& s) {
  if (options.transposeB)
    return gatherBlock(b, p.batch, p.n, p.k, s.n0, s.bn, s.k0, s.bk);
  return gatherBlock(b, p.batch, p.k, p.n, s.k0, s.bk, s.n0, s.bn);
}

/// NoC hand-off cost of one shard: A and B blocks in, the C block out,
/// plus the C block in when the run reads C (an initial gather with
/// beta != 0, or the previous partial of a chained K chunk).  Groups == 1
/// never crosses the NoC and is charged nothing — a one-group shard must
/// cost exactly the single-group estimate.
sunway::SimTime shardCommTime(const sunway::ArchConfig& arch, int groups,
                              const GemmProblem& p, const Shard& s) {
  if (groups <= 1) return 0;
  const double aBytes =
      static_cast<double>(p.batch * s.bm * s.bk) * sizeof(double);
  const double bBytes =
      static_cast<double>(p.batch * s.bk * s.bn) * sizeof(double);
  const double cBytes =
      static_cast<double>(p.batch * s.bm * s.bn) * sizeof(double);
  const bool readsC = s.chunk > 0 || p.beta != 0.0;
  const double messages = readsC ? 4.0 : 3.0;
  const double bytes = aBytes + bBytes + cBytes + (readsC ? cBytes : 0.0);
  return sunway::ticksFromSeconds(messages * arch.nocLatencySeconds +
                                 bytes / arch.nocBandwidthBytesPerSec);
}

/// The sharded run's simulated critical path, in ticks: each group's busy
/// and hand-off timeline and each C block's chain of K chunks.
class CriticalPath {
 public:
  CriticalPath(int groups, int blocks)
      : groupBusy_(static_cast<std::size_t>(groups)),
        groupComm_(static_cast<std::size_t>(groups)),
        chain_(static_cast<std::size_t>(blocks)) {}

  void add(const Shard& s, sunway::SimTime time, sunway::SimTime comm) {
    const auto gi = static_cast<std::size_t>(s.group);
    groupBusy_[gi] = sunway::addTicks(groupBusy_[gi], time);
    groupComm_[gi] = sunway::addTicks(groupComm_[gi], comm);
    auto& chain = chain_[static_cast<std::size_t>(s.block)];
    chain = sunway::addTicks(chain, sunway::addTicks(time, comm));
  }

  /// Wall time: the busiest group's timeline, or the longest chained K
  /// reduction if its serial chain dominates.
  void finish(const GemmProblem& problem, ShardedOutcome& outcome) const {
    sunway::SimTime wall = 0, compute = 0, comm = 0;
    for (std::size_t gi = 0; gi < groupBusy_.size(); ++gi) {
      wall = std::max(wall, sunway::addTicks(groupBusy_[gi], groupComm_[gi]));
      compute = std::max(compute, groupBusy_[gi]);
      comm = std::max(comm, groupComm_[gi]);
    }
    for (const sunway::SimTime chain : chain_) wall = std::max(wall, chain);
    outcome.seconds = sunway::toSeconds(wall);
    outcome.computeSeconds = sunway::toSeconds(compute);
    outcome.communicationSeconds = sunway::toSeconds(comm);
    const double flops =
        rt::gemmFlops(problem.m, problem.n, problem.k, problem.batch);
    outcome.gflops = wall > 0 ? flops / outcome.seconds / 1e9 : 0.0;
  }

 private:
  std::vector<sunway::SimTime> groupBusy_;
  std::vector<sunway::SimTime> groupComm_;
  std::vector<sunway::SimTime> chain_;
};

GemmProblem shardProblem(const GemmProblem& p, const Shard& s) {
  GemmProblem sub = p;
  sub.m = s.bm;
  sub.n = s.bn;
  sub.k = s.bk;
  // Chained K reduction: chunk 0 applies the caller's beta, every later
  // chunk accumulates onto the previous partial with beta == 1 (identity
  // scaling is bit-exact, so the chain reproduces the single run).
  if (s.chunk > 0) sub.beta = 1.0;
  return sub;
}

std::string shardLabel(const Shard& s) {
  return strCat("block ", s.block, " chunk ", s.chunk, " [m ", s.m0, "..",
                s.m0 + s.bm, " n ", s.n0, "..", s.n0 + s.bn, " k ", s.k0,
                "..", s.k0 + s.bk, "]");
}

void checkConfig(const CompiledKernel& kernel,
                 const sunway::ArchConfig& arch, int groups,
                 std::int64_t kSplit) {
  if (groups < 1)
    throwInput(strCat("sharded execution needs at least one group, got ",
                      groups));
  if (groups > arch.coreGroups)
    throwInput(strCat("requested ", groups, " groups but the node has ",
                      arch.coreGroups, " core groups"));
  if (kSplit < 1)
    throwInput(strCat("K split must be at least 1, got ", kSplit));
  if (kSplit > 1 && kernel.options.fusion == FusionKind::kEpilogueRelu)
    throwInput(
        "K-split sharding cannot chain an epilogue-fused kernel: the "
        "activation would apply to every partial instead of once");
}

perf::PerfReport buildShardedReport(const CompiledKernel& kernel,
                                    const sunway::ArchConfig& arch,
                                    const GemmProblem& p,
                                    const ShardedOutcome& outcome,
                                    const char* engine, int cpeCount) {
  perf::RunSample sample;
  sample.kernel = kernel.program.name;
  sample.engine = engine;
  sample.m = p.m;
  sample.n = p.n;
  sample.k = p.k;
  sample.batch = p.batch;
  sample.wallSeconds = outcome.seconds;
  sample.cpeCount = cpeCount;
  sample.reportedFlops = rt::gemmFlops(p.m, p.n, p.k, p.batch);
  rt::fillSampleCounters(outcome.counters, sample);
  return perf::buildPerfReport(
      sample, rt::machineModelFromArch(arch, outcome.concurrentGroups));
}

}  // namespace

ShardPlan planShards(const CompiledKernel& kernel,
                     const sunway::ArchConfig& arch,
                     const GemmProblem& problem, int groups,
                     std::int64_t kSplit) {
  checkConfig(kernel, arch, groups, kSplit);
  ShardPlan plan;

  // Near-square factorisation of the group count over C: pick the divisor
  // pair whose block aspect ratio best matches the matrix aspect ratio
  // (log-symmetric score, deterministic tie-break on the smaller row
  // count), then clamp to the matrix extents for degenerate shapes.
  int bestRows = 1;
  double bestScore = std::numeric_limits<double>::infinity();
  for (int r = 1; r <= groups; ++r) {
    if (groups % r != 0) continue;
    const int c = groups / r;
    const double score =
        std::abs(std::log((static_cast<double>(problem.m) / r) /
                          (static_cast<double>(problem.n) / c)));
    if (score < bestScore) {
      bestScore = score;
      bestRows = r;
    }
  }
  plan.rowBlocks = static_cast<int>(
      std::min<std::int64_t>(bestRows, problem.m));
  plan.colBlocks = static_cast<int>(
      std::min<std::int64_t>(groups / bestRows, problem.n));

  // K chunk boundaries align to the kernel's K padding unit so every
  // chunk's internal tile decomposition is a prefix of the single run's.
  plan.kUnit = kernel.options.useRma
                   ? kernel.options.tileK * kernel.options.stripFactor
                   : kernel.options.tileK;
  const std::int64_t totalUnits = ceilDiv(problem.k, plan.kUnit);
  plan.kChunks = std::min<std::int64_t>(kSplit, totalUnits);

  std::vector<Range> kRanges;
  {
    const std::int64_t baseUnits = totalUnits / plan.kChunks;
    const std::int64_t extraUnits = totalUnits % plan.kChunks;
    std::int64_t k0 = 0;
    for (std::int64_t c = 0; c < plan.kChunks; ++c) {
      const std::int64_t units = baseUnits + (c < extraUnits ? 1 : 0);
      const std::int64_t size =
          std::min(units * plan.kUnit, problem.k - k0);
      kRanges.push_back(Range{k0, size});
      k0 += size;
    }
  }

  const std::vector<Range> rowRanges =
      evenSplit(problem.m, plan.rowBlocks);
  const std::vector<Range> colRanges =
      evenSplit(problem.n, plan.colBlocks);
  for (int ri = 0; ri < plan.rowBlocks; ++ri)
    for (int ci = 0; ci < plan.colBlocks; ++ci) {
      const int block = ri * plan.colBlocks + ci;
      for (std::int64_t chunk = 0; chunk < plan.kChunks; ++chunk) {
        Shard s;
        s.block = block;
        s.chunk = chunk;
        // Chunks of one block rotate across groups so chained K
        // reductions exercise the cross-group hand-off.
        s.group = static_cast<int>((block * plan.kChunks + chunk) %
                                   groups);
        s.m0 = rowRanges[static_cast<std::size_t>(ri)].begin;
        s.bm = rowRanges[static_cast<std::size_t>(ri)].extent;
        s.n0 = colRanges[static_cast<std::size_t>(ci)].begin;
        s.bn = colRanges[static_cast<std::size_t>(ci)].extent;
        s.k0 = kRanges[static_cast<std::size_t>(chunk)].begin;
        s.bk = kRanges[static_cast<std::size_t>(chunk)].extent;
        plan.shards.push_back(s);
      }
    }
  return plan;
}

ShardedOutcome runShardedFunctional(const CompiledKernel& kernel,
                                    const sunway::ArchConfig& arch,
                                    const ShardedConfig& config,
                                    const GemmProblem& problem,
                                    std::span<const double> a,
                                    std::span<const double> b,
                                    std::span<double> c) {
  const ShardPlan plan =
      planShards(kernel, arch, problem, config.groups, config.kSplit);
  const int concurrency = plan.concurrency(config.groups);
  const sunway::ArchConfig groupArch =
      arch.forConcurrentGroups(concurrency);

  ShardedOutcome outcome;
  outcome.rowBlocks = plan.rowBlocks;
  outcome.colBlocks = plan.colBlocks;
  outcome.kChunks = plan.kChunks;
  outcome.concurrentGroups = concurrency;
  outcome.contentionDerate = arch.contentionDerate(concurrency);

  struct BlockState {
    std::vector<double> cBuf;
    std::int64_t chunksDone = 0;
  };
  std::vector<BlockState> blocks(static_cast<std::size_t>(plan.blocks()));

  // Shards per worker group, in plan order.  Workers pick the first of
  // their shards whose predecessor chunk is done — skipping ahead past
  // blocked chains, which is required for progress: with chunks of one
  // block assigned round-robin, strict in-order queues can deadlock
  // (group 0 waiting on a chunk only group 1 would run, and vice versa).
  std::vector<std::vector<std::size_t>> perGroup(
      static_cast<std::size_t>(config.groups));
  for (std::size_t i = 0; i < plan.shards.size(); ++i)
    perGroup[static_cast<std::size_t>(plan.shards[i].group)].push_back(i);

  std::mutex mu;
  std::condition_variable cv;
  std::vector<char> started(plan.shards.size(), 0);
  std::exception_ptr abortError;

  // What each shard contributes to the totals, summed after the join.
  struct ShardResult {
    sunway::CpeCounters counters;
    sunway::SimTime time = 0;
    sunway::SimTime commTime = 0;
    std::int64_t hostCopyBytes = 0;
    std::int64_t hostRmaCopyBytes = 0;
    std::int64_t hostSpmDirtyBytes = 0;
    std::optional<ShardedOutcome::GroupFailure> failure;
  };
  std::vector<ShardResult> results(plan.shards.size());

  auto runShard = [&](int group, std::size_t index) {
    const Shard& s = plan.shards[index];
    ShardResult& result = results[index];
    const GemmProblem sub = shardProblem(problem, s);
    std::vector<double> aBlk = gatherA(a, kernel.options, problem, s);
    std::vector<double> bBlk = gatherB(b, kernel.options, problem, s);
    BlockState& state = blocks[static_cast<std::size_t>(s.block)];
    std::int64_t cGatherBytes = 0;
    if (s.chunk == 0) {
      // beta == 0 never reads C: a zero buffer satisfies the kernel's
      // writes without touching the caller's (possibly uninitialised) C.
      if (problem.beta != 0.0) {
        state.cBuf = gatherBlock(c, problem.batch, problem.m, problem.n,
                                 s.m0, s.bm, s.n0, s.bn);
        cGatherBytes = static_cast<std::int64_t>(state.cBuf.size() *
                                                 sizeof(double));
      } else {
        state.cBuf.assign(
            static_cast<std::size_t>(problem.batch * s.bm * s.bn), 0.0);
      }
    }

    FunctionalRunConfig runConfig = config.run;
    runConfig.faultPlan =
        group == config.faultGroup ? config.groupFaultPlan : nullptr;

    // Fault domain isolation: snapshot the partial so a mid-run abort in
    // this group's mesh can be rolled back and re-executed fault-free
    // without corrupting the chain (or any other group's block).
    std::vector<double> snapshot;
    if (runConfig.faultPlan != nullptr) snapshot = state.cBuf;

    rt::RunOutcome run;
    try {
      run = runGemmFunctional(kernel, groupArch, sub, aBlk, bBlk,
                              state.cBuf, runConfig);
    } catch (const ProtocolError& e) {
      // A fault-free mesh aborting is a kernel/simulator bug, not a
      // recoverable group failure — let it surface.
      if (runConfig.faultPlan == nullptr) throw;
      // Node-level deadlock view: name the stuck group and carry its
      // per-CPE state dump, then degrade the group to a fault-free
      // re-run of the same shard.
      SW_WARN("sharded", "event=group_abort group=", group, " shard=\"",
              shardLabel(s), "\" error=", e.what());
      result.failure =
          ShardedOutcome::GroupFailure{group, shardLabel(s), e.what()};
      state.cBuf = std::move(snapshot);
      runConfig.faultPlan = nullptr;
      run = runGemmFunctional(kernel, groupArch, sub, aBlk, bBlk,
                              state.cBuf, runConfig);
    }

    std::int64_t cScatterBytes = 0;
    if (s.chunk == plan.kChunks - 1) {
      scatterBlock(c, problem.batch, problem.m, problem.n, s.m0, s.bm,
                   s.n0, s.bn, state.cBuf);
      cScatterBytes =
          static_cast<std::int64_t>(state.cBuf.size() * sizeof(double));
    }

    const std::int64_t gatherBytes =
        static_cast<std::int64_t>((aBlk.size() + bBlk.size()) *
                                  sizeof(double)) +
        cGatherBytes + cScatterBytes;
    result.counters = run.counters;
    result.time = run.time;
    result.commTime = shardCommTime(arch, concurrency, problem, s);
    result.hostCopyBytes = run.hostCopyBytes + gatherBytes;
    result.hostRmaCopyBytes = run.hostRmaCopyBytes;
    result.hostSpmDirtyBytes = run.hostSpmDirtyBytes;
  };

  auto worker = [&](int group) {
    const std::vector<std::size_t>& mine =
        perGroup[static_cast<std::size_t>(group)];
    for (;;) {
      std::size_t pick = plan.shards.size();
      {
        std::unique_lock<std::mutex> lock(mu);
        for (;;) {
          if (abortError != nullptr) return;
          bool anyLeft = false;
          for (const std::size_t idx : mine) {
            if (started[idx] != 0) continue;
            anyLeft = true;
            const Shard& s = plan.shards[idx];
            if (blocks[static_cast<std::size_t>(s.block)].chunksDone ==
                s.chunk) {
              pick = idx;
              started[idx] = 1;
              break;
            }
          }
          if (pick != plan.shards.size() || !anyLeft) break;
          cv.wait(lock);
        }
      }
      if (pick == plan.shards.size()) return;
      const Shard& s = plan.shards[pick];
      try {
        runShard(group, pick);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (abortError == nullptr) abortError = std::current_exception();
        cv.notify_all();
        return;
      }
      std::lock_guard<std::mutex> lock(mu);
      blocks[static_cast<std::size_t>(s.block)].chunksDone += 1;
      cv.notify_all();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(config.groups));
  for (int g = 0; g < config.groups; ++g)
    if (!perGroup[static_cast<std::size_t>(g)].empty())
      threads.emplace_back(worker, g);
  outcome.groupsUsed = static_cast<int>(threads.size());
  for (std::thread& t : threads) t.join();
  if (abortError != nullptr) std::rethrow_exception(abortError);

  CriticalPath path(config.groups, plan.blocks());
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    ShardResult& result = results[i];
    if (result.failure) outcome.failures.push_back(std::move(*result.failure));
    outcome.counters.add(result.counters);
    outcome.hostCopyBytes += result.hostCopyBytes;
    outcome.hostRmaCopyBytes += result.hostRmaCopyBytes;
    outcome.hostSpmDirtyBytes += result.hostSpmDirtyBytes;
    outcome.shardsRun += 1;
    path.add(plan.shards[i], result.time, result.commTime);
  }
  path.finish(problem, outcome);
  // Mesh-run counters are 64-CPE sums per shard, so the aggregate wall
  // normaliser is CPEs across all concurrently streaming meshes.
  outcome.report =
      buildShardedReport(kernel, arch, problem, outcome, "sharded-mesh",
                         concurrency * arch.meshSize());
  return outcome;
}

ShardedOutcome estimateSharded(const CompiledKernel& kernel,
                               const sunway::ArchConfig& arch,
                               const ShardedConfig& config,
                               const GemmProblem& problem) {
  const ShardPlan plan =
      planShards(kernel, arch, problem, config.groups, config.kSplit);
  const int concurrency = plan.concurrency(config.groups);
  const sunway::ArchConfig groupArch =
      arch.forConcurrentGroups(concurrency);

  ShardedOutcome outcome;
  outcome.rowBlocks = plan.rowBlocks;
  outcome.colBlocks = plan.colBlocks;
  outcome.kChunks = plan.kChunks;
  outcome.concurrentGroups = concurrency;
  outcome.contentionDerate = arch.contentionDerate(concurrency);

  CriticalPath path(config.groups, plan.blocks());
  std::vector<char> groupUsed(static_cast<std::size_t>(config.groups), 0);
  // The shards' steady states: summed jumps, time-weighted coverage and
  // the first shard's innermost loop.
  perf::PerfReport::SteadyState steady;
  double coveredSeconds = 0.0, shardSeconds = 0.0;
  for (const Shard& s : plan.shards) {
    const GemmProblem sub = shardProblem(problem, s);
    const rt::RunOutcome est = estimateGemm(kernel, groupArch, sub);
    path.add(s, est.time, shardCommTime(arch, concurrency, problem, s));
    groupUsed[static_cast<std::size_t>(s.group)] = 1;
    outcome.counters.add(est.counters);
    const perf::PerfReport::SteadyState& shard = est.report.steadyState;
    if (outcome.shardsRun++ == 0) {
      steady = shard;
    } else {
      steady.jumps += shard.jumps;
      steady.iterationsJumped += shard.iterationsJumped;
    }
    coveredSeconds += shard.coveredPct / 100.0 * est.seconds;
    shardSeconds += est.seconds;
  }
  for (const char used : groupUsed) outcome.groupsUsed += used != 0;
  path.finish(problem, outcome);
  // Estimator counters are symmetric single-CPE samples per shard: the
  // sample's cpeCount is the group count while the machine model carries
  // the node-wide mesh size, preserving the estimator's meshScale.
  outcome.report = buildShardedReport(kernel, arch, problem, outcome,
                                      "sharded-estimator", concurrency);
  steady.coveredPct = metrics::safePct(coveredSeconds, shardSeconds);
  outcome.report.steadyState = steady;
  return outcome;
}

}  // namespace sw::core
