// The per-CPE execution interface the kernel-program engines drive.
//
// Two runtimes implement it, and both charge simulated time through one
// CpeTiming each (sunway/cpe_timing.h), so they share every charge rule:
//   * CpeFiber (mesh.cc) — one cooperative fiber per CPE, real SPM and
//     main-memory data, waits that park until their message exists;
//     functional ground truth plus logical-clock timing.
//   * SymmetricCpeServices (estimator.h) — one CPE stepped alone, timing
//     only, with every RMA sender guard taken; scales to paper-sized
//     shapes.  It alone exposes a SteadyState, through which the plan
//     executor fast-forwards uniform loop iterations.  On padded shapes it
//     equals the mesh to the tick; on edge tiles it never reads below the
//     mesh (estimator.h gives the bound).
//
// Requests and waits are keyed by dense ids that the engines intern once
// through internSlot / internArray; a request that reaches a runtime with
// a negative id is an internal error.  Every clock and every time counter
// is SimTime (integer femtoseconds, sunway/sim_time.h).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sunway/sim_time.h"

namespace sw::sunway {

/// Compute-rate classes of CpeTiming::compute; micro-kernel calls are
/// charged by CpeTiming::computeMicro.
enum class ComputeRate {
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
  /// Dense ids from CpeServices::internArray / internSlot, which key the
  /// runtime's work; the names above only label errors and trace spans.
  int arrayId = -1;
  int slotId = -1;
};

/// The RMA manners generated kernels issue (§5, Fig.8b): row- and
/// column-wise broadcast.
enum class RmaKind {
  kRowBroadcast,
  kColBroadcast,
};

/// The leading part of an SPM tile: `rows` rows of `cols` doubles, the
/// rows `stride` doubles apart, from the tile's first word.  An edge-tile
/// DMA writes such a part of its full-tile layout.
struct TileExtent {
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t stride = 0;

  /// Doubles from the first live word to the last one; 0 when empty.
  [[nodiscard]] std::int64_t span() const {
    return rows > 0 && cols > 0 ? (rows - 1) * stride + cols : 0;
  }
};

/// A fully evaluated RMA message.
struct RmaRequest {
  RmaKind kind = RmaKind::kRowBroadcast;
  bool isSender = false;
  /// The modelled transfer: the whole tile.  Timing, counters and every
  /// SPM bounds check use it.
  std::int64_t bytes = 0;
  std::int64_t srcSpmOffsetBytes = 0;  // sender-side staging buffer
  std::int64_t dstSpmOffsetBytes = 0;  // receive buffer
  /// What the functional mesh copies to each receiver, at the same offsets:
  /// the sender's live part of the tile when set (it lies inside `bytes`),
  /// else all `bytes`.  The host copy is not the modelled transfer, so it
  /// changes no simulated number.
  std::optional<TileExtent> hostCopy;
  std::string slot;
  /// Dense id from CpeServices::internSlot.
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
/// now, since clocks only move forward), plus the reply slots' in-flight
/// flags.  Two back-edges with equal `relative` start iterations that
/// evolve identically, shifted in time.
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

class CpeTiming;  // sunway/cpe_timing.h

/// Dense ids for names, numbered in first-interned order.  A kernel has a
/// handful of reply slots and arrays, so a linear search serves.
struct NameTable {
  std::vector<std::string> names;

  int intern(const std::string& name) {
    const auto it = std::find(names.begin(), names.end(), name);
    if (it != names.end()) return static_cast<int>(it - names.begin());
    names.push_back(name);
    return static_cast<int>(names.size()) - 1;
  }
  /// The name behind `id`, or "?" for an id `intern` never returned.
  [[nodiscard]] std::string name(int id) const {
    if (id < 0 || static_cast<std::size_t>(id) >= names.size()) return "?";
    return names[static_cast<std::size_t>(id)];
  }
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

  /// Issue a non-blocking DMA; resets its reply slot and records the
  /// completion time.
  virtual void dmaIssue(const DmaRequest& request) = 0;

  /// Issue a non-blocking RMA broadcast (only called on the sender).
  virtual void rmaIssue(const RmaRequest& request) = 0;

  /// dma_wait_value / rma_wait_value: block until the message on reply slot
  /// `slotId` (from internSlot on this object) completes, and consume it;
  /// advances the logical clock.  For RMA waits, `isRowBroadcast` selects
  /// the mesh line whose channel carries the data.
  virtual void waitSlot(int slotId, bool isRma, bool isRowBroadcast) = 0;

  /// The timing core that owns this CPE's clock and counters.  Engines
  /// charge compute, retry backoffs and retries on it directly (the
  /// functional runtime performs the math separately via spmPtr data).
  [[nodiscard]] virtual CpeTiming& timing() = 0;

  /// The `count` doubles of this CPE's SPM from `offsetBytes`
  /// (element-aligned), checked over their whole extent: a range that does
  /// not fit raises a ProtocolError naming the CPE.  The caller may read
  /// that range and write its first `writeCount` doubles (0 for a read).
  /// The functional mesh re-zeroes what was written before its next run,
  /// so a read costs nothing later.  nullptr in timing-only mode.
  [[nodiscard]] virtual double* spmPtr(std::int64_t offsetBytes,
                                       std::int64_t count,
                                       std::int64_t writeCount) = 0;
  /// The same range, all of which the caller may write.
  [[nodiscard]] double* spmPtr(std::int64_t offsetBytes, std::int64_t count) {
    return spmPtr(offsetBytes, count, count);
  }

  /// The steady-state interface of a timing-only runtime whose iterations
  /// may be fast-forwarded; nullptr (the default) steps every op.  The
  /// mesh returns nullptr, so functional and fault-injected runs never
  /// jump.
  [[nodiscard]] virtual SteadyState* steadyState() { return nullptr; }

  /// Intern a reply-slot name into this runtime's dense id space.  Both
  /// engines bind names through it before they issue or wait, so the
  /// runtimes key all their work by integer.  The mesh overrides this with
  /// a mesh-wide table so RMA channel ids agree across all CPEs regardless
  /// of per-CPE interning order.
  [[nodiscard]] virtual int internSlot(const std::string& name) {
    return slotNames_.intern(name);
  }

  /// Intern a global-array name; negative result means the runtime does not
  /// know the array.  The functional mesh checks host memory; timing-only
  /// runtimes know every array (they never dereference).
  [[nodiscard]] virtual int internArray(const std::string& name) {
    return arrayNames_.intern(name);
  }

 protected:
  NameTable slotNames_;
  NameTable arrayNames_;
};

}  // namespace sw::sunway
