// Sequential single-CPE timing estimator.
//
// The generated GEMM code is symmetric across the mesh: every CPE executes
// the same op stream (modulo which broadcast round it sends), and a mesh
// barrier precedes every RMA round, so all logical clocks coincide at each
// synchronisation point.  Simulating one CPE with sender guards forced
// true therefore reproduces the mesh runtime's critical path.
//
// The approximation is validated against MeshSimulator in
// tests/runtime_timing_test.cc; the only divergence is the per-round issue
// overhead (the estimator charges it every round, a real CPE only on the
// round it sends), bounded well under 1%.
//
// Paper-sized shapes (15360^3) cost microseconds of host time, because the
// plan executor fast-forwards uniform loop iterations through this class's
// SteadyState interface.  The jump is exact, not an approximation:
//   * Every clock operation here is `+ constant` or `max` (issue overhead,
//     the DMA engine's busy-until time, completions, waits, barriers), so
//     one loop iteration is a max-plus map of the clocks, and shifting
//     every clock by c shifts the result by c.
//   * What an iteration does next depends only on the clocks relative to
//     the CPE clock, clipped at 0, and on which reply slots hold a message
//     (TimingSnapshot::relative).  Counter increments, stalls included,
//     are functions of that relative state.
//   * So when a back-edge finds the relative state equal to the one 1 (or
//     2) back-edges earlier, every further period repeats it: the jump adds
//     R·Δ to every clock and R·δ to the counters.  Times are integer ticks,
//     so the jump is bit-identical to stepping, not merely close.
// The conditions, which the plan executor enforces: the skipped iterations
// issue the same ops as the measured ones (no edge-tile clamp binds in
// them), nothing but this model's clocks changes with time (no faults, no
// mesh), and the skipped time fits the clock range (else ClockRangeError).
#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "sunway/arch.h"
#include "sunway/services.h"
#include "support/error.h"
#include "support/format.h"
#include "support/trace.h"

namespace sw::sunway {

/// What the steady-state jumps of one estimate covered (PerfReport's
/// steady_state block).
struct SteadyStateStats {
  std::int64_t jumps = 0;
  std::int64_t iterationsJumped = 0;
  SimTime ticksJumped = 0;
  /// The innermost loop that jumped (deepest nesting; the first such jump
  /// wins a tie): its variable, period and the period's DMA stall.
  std::string loopVar;
  int depth = -1;
  int periodIterations = 0;
  SimTime periodTicks = 0;
  SimTime periodDmaStallTicks = 0;
};

class SymmetricCpeServices final : public CpeServices, public SteadyState {
 public:
  explicit SymmetricCpeServices(const ArchConfig& config)
      : config_(config),
        tracing_(trace::enabled()),
        syncTicks_(config.syncTime()),
        spawnTicks_(config.spawnOverheadTime()) {
    if (tracing_) {
      trace::Tracer& tracer = trace::Tracer::global();
      tracer.setProcessName(trace::kEstimatorPid,
                            "symmetric estimator (simulated clock)");
      tracer.setThreadName(trace::kEstimatorPid, 0, "CPE 0,0 (symmetric)");
      tracer.setThreadName(trace::kEstimatorPid, trace::kDmaLaneOffset,
                           "CPE 0,0 dma");
      tracer.setThreadName(trace::kEstimatorPid, trace::kRmaLaneOffset,
                           "CPE 0,0 rma");
    }
  }

  [[nodiscard]] int rid() const override { return 0; }
  [[nodiscard]] int cid() const override { return 0; }
  [[nodiscard]] bool functional() const override { return false; }
  [[nodiscard]] bool guardAlwaysTrue() const override { return true; }

  void sync() override {
    ++counters_.syncs;
    advance(syncTicks_);
    counters_.syncStallTicks = addTicks(counters_.syncStallTicks, syncTicks_);
  }

  void dmaIssue(const DmaRequest& request) override {
    const std::int64_t bytes = request.tileRows * request.tileCols *
                               static_cast<std::int64_t>(sizeof(double));
    ++counters_.dmaMessages;
    counters_.dmaBytes += bytes;
    const SimTime transfer = config_.dmaTime(bytes, request.tileRows);
    const SimTime start = std::max(clock_, dmaEngineBusyUntil_);
    const SimTime done = addTicks(start, transfer);
    counters_.dmaBusyTicks = addTicks(counters_.dmaBusyTicks, transfer);
    dmaEngineBusyUntil_ = done;
    setCompletion(request.slotId >= 0 ? request.slotId
                                      : internSlot(request.slot),
                  done);
    if (tracing_)
      trace::Tracer::global().simSpan(
          trace::kEstimatorPid, trace::kDmaLaneOffset,
          strCat("dma:", request.isPut ? "put:" : "get:", request.array),
          "dma", toSeconds(start), toSeconds(done),
          {trace::arg("bytes", bytes), trace::arg("slot", request.slot)});
    advance(kIssueOverheadTicks);
  }

  void rmaIssue(const RmaRequest& request) override {
    ++counters_.rmaBroadcastsSent;
    counters_.rmaBytesSent += request.bytes;
    const SimTime transfer = config_.rmaTime(request.bytes);
    const SimTime done = addTicks(clock_, transfer);
    counters_.rmaBusyTicks = addTicks(counters_.rmaBusyTicks, transfer);
    setCompletion(request.slotId >= 0 ? request.slotId
                                      : internSlot(request.slot),
                  done);
    if (tracing_)
      trace::Tracer::global().simSpan(
          trace::kEstimatorPid, trace::kRmaLaneOffset,
          request.isRowBroadcast() ? "rma:rowbcast" : "rma:other", "rma",
          toSeconds(clock_), toSeconds(done),
          {trace::arg("bytes", request.bytes),
           trace::arg("slot", request.slot)});
    advance(kIssueOverheadTicks);
  }

  void waitSlot(const std::string& slot, bool isRma,
                bool isRowBroadcast) override {
    waitSlotId(internSlot(slot), isRma, isRowBroadcast);
  }

  void waitSlotId(int slotId, bool isRma, bool isRowBroadcast) override {
    (void)isRowBroadcast;
    const auto index = static_cast<std::size_t>(slotId);
    if (index >= slotCompletion_.size() || !slotHasMessage_[index])
      throw ProtocolError(strCat("wait on slot '",
                                 slotNames_.at(index),
                                 "' with no message in flight"));
    const SimTime completion = slotCompletion_[index];
    if (completion > clock_) {
      const SimTime stall = completion - clock_;
      counters_.waitStallTicks += stall;
      if (isRma)
        counters_.rmaStallTicks += stall;
      else
        counters_.dmaStallTicks += stall;
      if (tracing_)
        trace::Tracer::global().simSpan(
            trace::kEstimatorPid, 0, strCat("wait:", slotNames_.at(index)),
            "stall", toSeconds(clock_), toSeconds(completion));
      clock_ = completion;
    }
  }

  void computeTime(std::int64_t flops, ComputeRate rate) override {
    SimTime ticks = 0;
    const char* name = "compute";
    switch (rate) {
      case ComputeRate::kAsmKernel:
        ticks = config_.cpeComputeTime(flops, config_.cpeFlopsPerCycle,
                                       config_.asmKernelEfficiency);
        ++counters_.microKernelCalls;
        counters_.flops += flops;
        name = "microkernel";
        break;
      case ComputeRate::kNaive:
        ticks = config_.cpeComputeTime(flops, config_.naiveFlopsPerCycle);
        counters_.flops += flops;
        name = "naive_compute";
        break;
      case ComputeRate::kElementwise:
        ticks =
            config_.cpeComputeTime(flops, config_.elementwiseFlopsPerCycle);
        name = "elementwise";
        break;
    }
    charge(name, flops, ticks);
  }

  void computeTimeMicro(std::int64_t flops, int mr, int nr) override {
    const SimTime ticks = config_.cpeComputeTime(
        flops, config_.cpeFlopsPerCycle,
        config_.microKernelEfficiency(mr, nr));
    ++counters_.microKernelCalls;
    counters_.flops += flops;
    charge("microkernel", flops, ticks);
  }

  [[nodiscard]] double* spmPtr(std::int64_t) override { return nullptr; }
  [[nodiscard]] SimTime clock() const override { return clock_; }
  [[nodiscard]] const CpeCounters& counters() const override {
    return counters_;
  }
  [[nodiscard]] SteadyState* steadyState() override { return this; }

  // --- SteadyState ---

  void snapshot(TimingSnapshot& out) const override {
    out.clock = clock_;
    out.counters = counters_;
    out.relative.clear();
    out.relative.push_back(ahead(dmaEngineBusyUntil_));
    for (std::size_t i = 0; i < slotCompletion_.size(); ++i) {
      out.relative.push_back(ahead(slotCompletion_[i]));
      out.relative.push_back(slotHasMessage_[i]);
    }
  }

  void jump(const SteadyStateJump& jump) override {
    const SimTime shift = mulTicks(jump.periods, jump.periodTicks);
    const SimTime from = clock_;
    clock_ = addTicks(clock_, shift);
    dmaEngineBusyUntil_ = addTicks(dmaEngineBusyUntil_, shift);
    for (SimTime& completion : slotCompletion_)
      completion = addTicks(completion, shift);
    counters_.addScaled(jump.periodCounters, jump.periods);

    const std::int64_t iterations =
        jump.periods * static_cast<std::int64_t>(jump.periodIterations);
    ++stats_.jumps;
    stats_.iterationsJumped += iterations;
    stats_.ticksJumped = addTicks(stats_.ticksJumped, shift);
    if (jump.depth > stats_.depth) {
      stats_.depth = jump.depth;
      stats_.loopVar = *jump.loopVar;
      stats_.periodIterations = jump.periodIterations;
      stats_.periodTicks = jump.periodTicks;
      stats_.periodDmaStallTicks = jump.periodCounters.dmaStallTicks;
    }
    if (tracing_)
      trace::Tracer::global().simSpan(
          trace::kEstimatorPid, 0, "fast-forward", "fast-forward",
          toSeconds(from), toSeconds(clock_),
          {trace::arg("loop", *jump.loopVar),
           trace::arg("iterations", iterations),
           trace::arg("period_iterations",
                      static_cast<std::int64_t>(jump.periodIterations)),
           trace::arg("period_us", toSeconds(jump.periodTicks) * 1e6)});
  }

  /// Estimated wall-clock including the mesh spawn overhead.
  [[nodiscard]] SimTime total() const { return addTicks(clock_, spawnTicks_); }

  [[nodiscard]] const SteadyStateStats& steadyStateStats() const {
    return stats_;
  }

 private:
  static constexpr SimTime kIssueOverheadTicks = 50'000'000;  // 0.05 µs

  void advance(SimTime ticks) { clock_ = addTicks(clock_, ticks); }

  /// Compute of `ticks` on the CPE clock.
  void charge(const char* name, std::int64_t flops, SimTime ticks) {
    const SimTime start = clock_;
    advance(ticks);
    counters_.computeTicks = addTicks(counters_.computeTicks, ticks);
    if (tracing_)
      trace::Tracer::global().simSpan(trace::kEstimatorPid, 0, name,
                                      "compute", toSeconds(start),
                                      toSeconds(clock_),
                                      {trace::arg("flops", flops)});
  }

  /// How far `time` lies ahead of the CPE clock; 0 when it has passed.
  [[nodiscard]] SimTime ahead(SimTime time) const {
    return time > clock_ ? time - clock_ : 0;
  }

  /// Vector-indexed per-slot completion clocks (ids from the inherited
  /// per-instance interner); the hot path never hashes slot names.
  void setCompletion(int slotId, SimTime done) {
    const auto index = static_cast<std::size_t>(slotId);
    if (index >= slotCompletion_.size()) {
      slotCompletion_.resize(index + 1, 0);
      slotHasMessage_.resize(index + 1, 0);
    }
    slotCompletion_[index] = done;
    slotHasMessage_[index] = 1;
  }

  const ArchConfig config_;  // a copy: callers may pass a temporary
  bool tracing_;
  SimTime syncTicks_;
  SimTime spawnTicks_;
  SimTime clock_ = 0;
  SimTime dmaEngineBusyUntil_ = 0;
  CpeCounters counters_;
  std::vector<SimTime> slotCompletion_;
  std::vector<unsigned char> slotHasMessage_;
  SteadyStateStats stats_;
};

}  // namespace sw::sunway
