// Sequential single-CPE timing estimator.
//
// The generated GEMM code is symmetric across the mesh: every CPE executes
// the same op stream (modulo which broadcast rounds it sends and how far
// its edge tiles clamp), and a mesh barrier precedes every RMA round.  So
// this class steps CPE (0,0) alone, with every sender guard taken and a
// barrier that meets only itself, and charges it through the same
// CpeTiming (sunway/cpe_timing.h) a mesh CPE uses.
//
// How it relates to MeshSimulator (pinned in tests/runtime_timing_test.cc):
//   * Padded shapes: every CPE does the same work, and the issue overheads
//     of the rounds a mesh CPE does not send fall inside waits and
//     barriers it pays anyway, so the estimate equals the mesh to the
//     tick.
//   * Edge tiles: the estimate is never below the mesh, and never above it
//     by more than 50 ns (one issue overhead) per broadcast it sends.
//     Sketch: every mesh CPE runs a subsequence of the estimator's ops
//     (it sends only its own rounds) at no greater cost (CPE (0,0) holds
//     the least-clamped tiles); the clocks use only `+` and `max`, which
//     are monotone, so no mesh clock passes the estimator's.  Mesh CPE
//     (0,0) runs the estimator's ops but for the broadcasts it does not
//     send, and between two barriers the gap grows by at most the issue
//     overheads of the round's two broadcasts; the barrier's max never
//     widens it.
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

#include <string>

#include "sunway/arch.h"
#include "sunway/cpe_timing.h"
#include "sunway/services.h"
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
        timing_(config_, slotNames_, trace::kEstimatorPid, 0),
        tracing_(trace::enabled()),
        spawnTicks_(config.spawnOverheadTime()) {
    if (tracing_) {
      trace::Tracer::global().setProcessName(
          trace::kEstimatorPid, "symmetric estimator (simulated clock)");
      timing_.nameLanes("CPE 0,0 (symmetric)");
    }
  }

  [[nodiscard]] int rid() const override { return 0; }
  [[nodiscard]] int cid() const override { return 0; }
  [[nodiscard]] bool functional() const override { return false; }
  [[nodiscard]] bool guardAlwaysTrue() const override { return true; }

  /// A barrier with itself: every CPE clock is this one.
  void sync() override { timing_.leave(timing_.arrive(0)); }

  void dmaIssue(const DmaRequest& request) override {
    timing_.issueDma(request, 0);
  }

  void rmaIssue(const RmaRequest& request) override {
    timing_.post(request.slotId, timing_.issueRma(request, 0));
  }

  void waitSlot(int slotId, bool isRma, bool) override {
    timing_.wait(slotId, isRma);
  }

  [[nodiscard]] CpeTiming& timing() override { return timing_; }
  [[nodiscard]] double* spmPtr(std::int64_t, std::int64_t,
                               std::int64_t) override {
    return nullptr;
  }
  [[nodiscard]] SteadyState* steadyState() override { return this; }

  // --- SteadyState ---

  void snapshot(TimingSnapshot& out) const override { timing_.snapshot(out); }

  void jump(const SteadyStateJump& jump) override {
    const SimTime shift = mulTicks(jump.periods, jump.periodTicks);
    const SimTime from = timing_.clock();
    timing_.shift(shift, jump.periodCounters, jump.periods);

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
          toSeconds(from), toSeconds(timing_.clock()),
          {trace::arg("loop", *jump.loopVar),
           trace::arg("iterations", iterations),
           trace::arg("period_iterations",
                      static_cast<std::int64_t>(jump.periodIterations)),
           trace::arg("period_us", toSeconds(jump.periodTicks) * 1e6)});
  }

  /// The estimate's CPE clock and counters.
  [[nodiscard]] SimTime clock() const { return timing_.clock(); }
  [[nodiscard]] const CpeCounters& counters() const {
    return timing_.counters();
  }

  /// Estimated wall-clock including the mesh spawn overhead.
  [[nodiscard]] SimTime total() const {
    return addTicks(timing_.clock(), spawnTicks_);
  }

  [[nodiscard]] const SteadyStateStats& steadyStateStats() const {
    return stats_;
  }

 private:
  const ArchConfig config_;  // a copy: callers may pass a temporary
  CpeTiming timing_;
  bool tracing_;
  SimTime spawnTicks_;
  SteadyStateStats stats_;
};

}  // namespace sw::sunway
