// The per-CPE execution interface the kernel-program interpreter drives.
//
// Two implementations exist:
//   * CpeFiber (mesh.cc) — one cooperative fiber per CPE, real SPM and
//     main-memory data, waits that park until their message exists;
//     functional ground truth plus logical-clock timing.
//   * SymmetricCpeServices (estimator.h) — sequential single-CPE model
//     exploiting the mesh symmetry of the generated GEMM code; timing only,
//     scales to paper-sized shapes.  Validated against the mesh runtime
//     in tests.  It alone exposes a SteadyState, through which the plan
//     executor fast-forwards uniform loop iterations.
//
// Every clock and every time counter is SimTime (integer femtoseconds,
// sunway/sim_time.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sunway/sim_time.h"

namespace sw::sunway {

/// Compute-rate classes the timing model distinguishes.
enum class ComputeRate {
  kAsmKernel,     // vendor micro-kernel (§7.2)
  kNaive,         // --no-use-asm loop nest
  kElementwise,   // SPM tile element-wise ops
};

/// A fully evaluated DMA message (addresses resolved by the interpreter).
struct DmaRequest {
  bool isPut = false;
  std::string array;          // global array name
  std::int64_t batchIndex = 0;
  std::int64_t rowStart = 0;  // r of Eq. (1)
  std::int64_t colStart = 0;  // c of Eq. (1)
  std::int64_t tileRows = 0;  // X_tau
  std::int64_t tileCols = 0;  // Y_tau  (== len)
  std::int64_t spmOffsetBytes = 0;
  /// SPM row stride in elements; 0 means tileCols (dense tile).  Edge-tile
  /// transfers clamp tileRows/tileCols to the valid extent but keep the
  /// full-tile stride here so the in-SPM layout is unchanged.  A clamped
  /// request may legally be empty (tileRows == 0 or tileCols == 0): it
  /// moves no data but still signals its reply slot.
  std::int64_t spmRowStrideElems = 0;
  std::string slot;
  /// Dense ids interned via CpeServices::internArray / internSlot.  The
  /// lowered-plan executor binds these once per run so the hot path never
  /// hashes the strings above; negative means "not interned" and the
  /// runtime interns the string fields on the fly (legacy tree-walk path).
  int arrayId = -1;
  int slotId = -1;
};

/// The RMA manners generated kernels issue (§5, Fig.8b): row- and
/// column-wise broadcast.
enum class RmaKind {
  kRowBroadcast,
  kColBroadcast,
};

/// A fully evaluated RMA message.
struct RmaRequest {
  RmaKind kind = RmaKind::kRowBroadcast;
  bool isSender = false;
  std::int64_t bytes = 0;
  std::int64_t srcSpmOffsetBytes = 0;  // sender-side staging buffer
  std::int64_t dstSpmOffsetBytes = 0;  // receive buffer
  std::string slot;
  /// Dense id interned via CpeServices::internSlot; negative means "not
  /// interned" (the runtime interns `slot` on the fly).
  int slotId = -1;

  [[nodiscard]] bool isRowBroadcast() const {
    return kind == RmaKind::kRowBroadcast;
  }
};

/// Aggregate counters a run produces; summed over CPEs by the runtimes.
/// Every field is an integer, times in SimTime ticks, so sums are exact
/// and a steady-state jump adds R·δ bit-identically to stepping.
struct CpeCounters {
  std::int64_t dmaMessages = 0;
  std::int64_t dmaBytes = 0;
  std::int64_t rmaBroadcastsSent = 0;
  std::int64_t rmaBytesSent = 0;
  std::int64_t syncs = 0;
  std::int64_t microKernelCalls = 0;
  /// Floating-point operations charged to compute kernels (micro-kernel
  /// rates only, not element-wise ops).  Edge-tile runs charge the clamped
  /// effective shape, so partial tiles cost strictly fewer flops than the
  /// padded-full-tile convention they replace.
  std::int64_t flops = 0;
  SimTime computeTicks = 0;
  /// Time the CPE's DMA engine spends transferring (may overlap compute —
  /// that overlap is exactly what §6's pipelining buys).
  SimTime dmaBusyTicks = 0;
  /// Time this CPE's outbound RMA transfers occupy the mesh network (the
  /// receive side charges nothing; only exposed latency shows up as stall).
  SimTime rmaBusyTicks = 0;
  /// Time the CPE's clock is advanced by reply waits (exposed latency).
  SimTime waitStallTicks = 0;
  /// Exposed-latency split of waitStallTicks for per-bucket attribution
  /// (PerfReport): stall charged at DMA reply waits, at RMA round waits,
  /// and at interpreter retry backoffs.  dmaStall + rmaStall + retryStall
  /// == waitStall up to fault-injected sync delays (also counted there).
  SimTime dmaStallTicks = 0;
  SimTime rmaStallTicks = 0;
  SimTime retryStallTicks = 0;
  /// Time spent at mesh barriers: waiting for the slowest CPE plus the
  /// barrier cost itself.  Not part of waitStallTicks (the overlap/stall
  /// gauges predate it); PerfReport attributes it as the sync bucket.
  SimTime syncStallTicks = 0;
  /// Fault-injection sites that fired on this CPE (zero without a plan).
  std::int64_t faultsInjected = 0;
  /// DMA operations the interpreter re-issued after a transient failure.
  std::int64_t dmaRetries = 0;

  /// this += times · delta, field by field; ClockRangeError past int64.
  void addScaled(const CpeCounters& delta, std::int64_t times) {
    for (const auto field : kFields)
      this->*field = addTicks(this->*field, mulTicks(times, delta.*field));
  }
  void add(const CpeCounters& other) { addScaled(other, 1); }

  /// Field-wise this − base (the counters one steady-state period adds).
  [[nodiscard]] CpeCounters minus(const CpeCounters& base) const {
    CpeCounters delta;
    for (const auto field : kFields) delta.*field = this->*field - base.*field;
    return delta;
  }

  friend bool operator==(const CpeCounters&, const CpeCounters&) = default;

 private:
  static constexpr std::int64_t CpeCounters::*kFields[] = {
      &CpeCounters::dmaMessages,       &CpeCounters::dmaBytes,
      &CpeCounters::rmaBroadcastsSent, &CpeCounters::rmaBytesSent,
      &CpeCounters::syncs,             &CpeCounters::microKernelCalls,
      &CpeCounters::flops,             &CpeCounters::computeTicks,
      &CpeCounters::dmaBusyTicks,      &CpeCounters::rmaBusyTicks,
      &CpeCounters::waitStallTicks,    &CpeCounters::dmaStallTicks,
      &CpeCounters::rmaStallTicks,     &CpeCounters::retryStallTicks,
      &CpeCounters::syncStallTicks,    &CpeCounters::faultsInjected,
      &CpeCounters::dmaRetries,
  };
};

/// The timing state a steady-state jump compares and advances.  `relative`
/// holds every clock the future depends on, relative to `clock` and
/// clipped at 0 (a completion already in the past acts like one exactly
/// now, since clocks only move forward), plus the reply slots'
/// has-message flags.  Two back-edges with equal `relative` start
/// iterations that evolve identically, shifted in time.
struct TimingSnapshot {
  SimTime clock = 0;
  CpeCounters counters;
  std::vector<SimTime> relative;
};

/// One steady-state jump: `periods` repetitions of a period of
/// `periodIterations` loop iterations, each adding `periodTicks` to every
/// clock and `periodCounters` to the counters.  `loopVar`, `depth` (loop
/// nesting, 0 outermost) and the rest feed the report and the trace.
struct SteadyStateJump {
  const std::string* loopVar = nullptr;
  int depth = 0;
  int periodIterations = 1;
  std::int64_t periods = 0;
  SimTime periodTicks = 0;
  CpeCounters periodCounters;
};

/// The estimator's steady-state interface (CpeServices::steadyState).
/// The estimator's clocks use only `+ constant` and `max`, so one loop
/// iteration is a max-plus map, and such a map commutes with a time shift:
/// an iteration that starts from the same relative state repeats exactly,
/// shifted.  The plan executor detects the repeat (snapshot) and skips the
/// remaining identical periods (jump).
class SteadyState {
 public:
  virtual void snapshot(TimingSnapshot& out) const = 0;
  /// Add periods · periodTicks to every clock and periods · periodCounters
  /// to the counters; ClockRangeError when that leaves int64.
  virtual void jump(const SteadyStateJump& jump) = 0;

 protected:
  ~SteadyState() = default;
};

class CpeServices {
 public:
  virtual ~CpeServices() = default;

  [[nodiscard]] virtual int rid() const = 0;
  [[nodiscard]] virtual int cid() const = 0;

  /// True when the runtime carries real data (SPM + main memory); false in
  /// timing-only mode.
  [[nodiscard]] virtual bool functional() const = 0;

  /// True for the symmetric estimator: RMA sender guards are treated as
  /// satisfied so the single simulated CPE accounts every broadcast round.
  [[nodiscard]] virtual bool guardAlwaysTrue() const { return false; }

  /// Mesh-wide barrier (athread synch()).
  virtual void sync() = 0;

  /// Issue a non-blocking DMA; resets `slot` and records completion time.
  virtual void dmaIssue(const DmaRequest& request) = 0;

  /// Issue a non-blocking RMA broadcast (only called on the sender).
  virtual void rmaIssue(const RmaRequest& request) = 0;

  /// dma_wait_value / rma_wait_value: block until the message tied to
  /// `slot` completes; advances the logical clock.  For RMA waits,
  /// `isRowBroadcast` selects the mesh line whose channel carries the data.
  virtual void waitSlot(const std::string& slot, bool isRma,
                        bool isRowBroadcast) = 0;

  /// Account `flops` of compute at the given rate class (advances clock;
  /// the functional runtime performs the math separately via spmPtr data).
  virtual void computeTime(std::int64_t flops, ComputeRate rate) = 0;

  /// Variant-aware micro-kernel accounting: same counters as
  /// computeTime(flops, kAsmKernel), but the rate reflects the generated
  /// (mr, nr) register block (ArchConfig::microKernelEfficiency).  The
  /// base default ignores the variant so test doubles keep working; the
  /// mesh and estimator override it.  At the default (4, 8) block every
  /// implementation must charge exactly the kAsmKernel rate.
  virtual void computeTimeMicro(std::int64_t flops, int mr, int nr) {
    (void)mr;
    (void)nr;
    computeTime(flops, ComputeRate::kAsmKernel);
  }

  /// Pointer into this CPE's SPM at `offsetBytes` (element-aligned);
  /// nullptr in timing-only mode.
  [[nodiscard]] virtual double* spmPtr(std::int64_t offsetBytes) = 0;

  /// Advance this CPE's clock without doing work — retry backoff.
  virtual void stallFor(SimTime ticks) { (void)ticks; }

  /// Count one interpreter-level DMA retry against this CPE.
  virtual void noteDmaRetry() {}

  /// True when `array` resolves in this runtime.  The functional mesh
  /// runtime checks host memory; timing-only runtimes accept everything
  /// (they never dereference).
  [[nodiscard]] virtual bool knowsArray(const std::string& array) const {
    (void)array;
    return true;
  }

  [[nodiscard]] virtual SimTime clock() const = 0;
  [[nodiscard]] virtual const CpeCounters& counters() const = 0;

  /// The steady-state interface of a timing-only runtime whose iterations
  /// may be fast-forwarded; nullptr (the default) steps every op.  The
  /// mesh returns nullptr, so functional and fault-injected runs never
  /// jump.
  [[nodiscard]] virtual SteadyState* steadyState() { return nullptr; }

  /// Intern a reply-slot name into this runtime's dense id space.  Plan
  /// executors bind names once per run and then issue integer-keyed
  /// requests, so the hot path never hashes strings.  The mesh
  /// overrides this with a mesh-wide table so RMA channel ids agree across
  /// all CPEs regardless of per-CPE interning order.
  [[nodiscard]] virtual int internSlot(const std::string& name) {
    for (std::size_t i = 0; i < slotNames_.size(); ++i) {
      if (slotNames_[i] == name) return static_cast<int>(i);
    }
    slotNames_.push_back(name);
    return static_cast<int>(slotNames_.size()) - 1;
  }

  /// Intern a global-array name; negative result means the runtime does not
  /// know the array (timing-only runtimes know everything and never return
  /// negative).
  [[nodiscard]] virtual int internArray(const std::string& name) {
    for (std::size_t i = 0; i < arrayNames_.size(); ++i) {
      if (arrayNames_[i] == name) return static_cast<int>(i);
    }
    arrayNames_.push_back(name);
    return static_cast<int>(arrayNames_.size()) - 1;
  }

  /// Integer-keyed variant of waitSlot; `slotId` must come from internSlot
  /// on the same services object.  The base default shims to the string
  /// API; fast runtimes override it with a vector-indexed lookup.
  virtual void waitSlotId(int slotId, bool isRma, bool isRowBroadcast) {
    waitSlot(slotNames_.at(static_cast<std::size_t>(slotId)), isRma,
             isRowBroadcast);
  }

 protected:
  std::vector<std::string> slotNames_;
  std::vector<std::string> arrayNames_;
};

}  // namespace sw::sunway
