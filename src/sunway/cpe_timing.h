// The timing core: every rule that moves one CPE's simulated clock.
//
// Both runtimes charge simulated time through one CpeTiming each: every
// mesh CPE fiber (mesh.cc) owns one, and so does the symmetric estimator
// (estimator.h).  The runtimes add what is theirs alone (data, fibers, RMA
// rounds and faults on the mesh; always-true guards and steady-state jumps
// in the estimator), so the two cannot disagree on what an op costs.
//
// State: the CPE clock, the busy-until time of the CPE's DMA engine, the
// completion time of the message in flight on each reply slot, and the
// counters.  Rules, all SimTime `+` and `max`:
//   * DMA issue: the transfer starts once the CPE and its engine are both
//     free (one CPE's messages serialise on its engine) and takes
//     ArchConfig::dmaTime plus any injected delay; the CPE moves on after
//     the issue overhead.
//   * RMA issue: the broadcast leaves at once and lands after rmaTime plus
//     any injected delay; the sender moves on after the issue overhead.
//   * A wait advances the clock to the message's completion and charges
//     the stall to the DMA or the RMA bucket.
//   * Compute advances the clock at its rate class.
//   * A barrier leaves at max(clock, meshMax) + syncTime, where meshMax is
//     the latest clock any CPE reached it with.
//   * A retry backoff stalls the clock.
//
// Reply-slot discipline: a slot holds at most one message.  Issuing onto a
// slot whose message was never waited for, or waiting on a slot with no
// message (never issued, or already waited for), is a ProtocolError naming
// the slot.  A wait consumes its message even when the runtime then fails
// it transiently, so the retry's re-issue is legal.  The estimator keeps
// its RMA replies here too; the mesh matches RMA rounds by ordinal and
// charges only their stall (stallUntil).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sunway/arch.h"
#include "sunway/services.h"
#include "support/error.h"
#include "support/format.h"
#include "support/trace.h"

namespace sw::sunway {

class CpeTiming {
 public:
  /// `slotNames` resolves interned slot ids in errors and trace spans.
  /// Spans go to trace process `tracePid`: compute, waits and barriers on
  /// lane `traceLane`, transfers on its DMA and RMA side lanes.
  CpeTiming(const ArchConfig& config, const NameTable& slotNames,
            int tracePid, int traceLane)
      : config_(config),
        slotNames_(slotNames),
        tracePid_(tracePid),
        traceLane_(traceLane),
        tracing_(trace::enabled()),
        syncTicks_(config.syncTime()) {}

  /// What issuing one DMA or RMA message costs the CPE (0.05 µs).
  static constexpr SimTime kIssueOverheadTicks = 50'000'000;

  [[nodiscard]] SimTime clock() const { return clock_; }
  [[nodiscard]] const CpeCounters& counters() const { return counters_; }

  /// Name this CPE's three trace lanes after `cpe`.
  void nameLanes(const std::string& cpe) const {
    trace::Tracer& tracer = trace::Tracer::global();
    tracer.setThreadName(tracePid_, traceLane_, cpe);
    tracer.setThreadName(tracePid_, trace::kDmaLaneOffset + traceLane_,
                         cpe + " dma");
    tracer.setThreadName(tracePid_, trace::kRmaLaneOffset + traceLane_,
                         cpe + " rma");
  }

  /// Index of an interned slot id.  Every request that reaches a runtime
  /// carries ids from CpeServices::internSlot, so a negative one is a bug.
  static std::size_t slotIndex(int slotId) {
    SW_CHECK(slotId >= 0, "reply slot id not interned");
    return static_cast<std::size_t>(slotId);
  }

  /// Issue a DMA on this CPE's engine and post its reply on the request's
  /// slot, which the issue resets (the `reply = 0; dma_iget(...)` pattern
  /// of §4).  `delay` (an injected fault, else 0) lengthens the transfer.
  void issueDma(const DmaRequest& request, SimTime delay) {
    SW_CHECK(request.arrayId >= 0, "DMA array id not interned");
    const std::int64_t bytes = request.tileRows * request.tileCols *
                               static_cast<std::int64_t>(sizeof(double));
    ++counters_.dmaMessages;
    counters_.dmaBytes += bytes;
    const SimTime start = std::max(clock_, dmaEngineBusyUntil_);
    const SimTime transfer =
        addTicks(config_.dmaTime(bytes, request.tileRows), delay);
    const SimTime done = addTicks(start, transfer);
    counters_.dmaBusyTicks = addTicks(counters_.dmaBusyTicks, transfer);
    dmaEngineBusyUntil_ = done;
    post(request.slotId, done);
    if (tracing_)
      trace::Tracer::global().simSpan(
          tracePid_, trace::kDmaLaneOffset + traceLane_,
          strCat("dma:", request.isPut ? "put:" : "get:", request.array),
          "dma", toSeconds(start), toSeconds(done),
          {trace::arg("bytes", bytes), trace::arg("slot", request.slot)});
    advance(kIssueOverheadTicks);
  }

  /// Issue an RMA broadcast from this CPE; returns when it lands.
  /// `delay` as for issueDma.
  SimTime issueRma(const RmaRequest& request, SimTime delay) {
    ++counters_.rmaBroadcastsSent;
    counters_.rmaBytesSent += request.bytes;
    const SimTime transfer = addTicks(config_.rmaTime(request.bytes), delay);
    const SimTime done = addTicks(clock_, transfer);
    counters_.rmaBusyTicks = addTicks(counters_.rmaBusyTicks, transfer);
    if (tracing_)
      trace::Tracer::global().simSpan(
          tracePid_, trace::kRmaLaneOffset + traceLane_,
          request.isRowBroadcast() ? "rma:rowbcast" : "rma:colbcast", "rma",
          toSeconds(clock_), toSeconds(done),
          {trace::arg("bytes", request.bytes),
           trace::arg("slot", request.slot)});
    advance(kIssueOverheadTicks);
    return done;
  }

  /// Put a message that completes at `completion` in flight on `slotId`.
  void post(int slotId, SimTime completion) {
    const std::size_t index = slotIndex(slotId);
    if (index >= replies_.size()) replies_.resize(index + 1);
    Reply& reply = replies_[index];
    if (reply.inFlight)
      throw ProtocolError(strCat("issue on slot '", slotNames_.name(slotId),
                                 "' before its message was waited for"));
    reply.completion = completion;
    reply.inFlight = true;
  }

  /// Consume the message on `slotId`, stalling until it completes.
  void wait(int slotId, bool isRma) {
    const std::size_t index = slotIndex(slotId);
    if (index >= replies_.size() || !replies_[index].inFlight)
      throw ProtocolError(strCat("wait on slot '", slotNames_.name(slotId),
                                 "' with no message in flight"));
    replies_[index].inFlight = false;
    stallUntil(replies_[index].completion, isRma, slotId);
  }

  /// Stall until `completion`, the landing time of a message waited for on
  /// `slotId`; nothing when it has already landed.
  void stallUntil(SimTime completion, bool isRma, int slotId) {
    if (completion <= clock_) return;
    const SimTime stall = completion - clock_;
    counters_.waitStallTicks += stall;
    (isRma ? counters_.rmaStallTicks : counters_.dmaStallTicks) += stall;
    if (tracing_)
      trace::Tracer::global().simSpan(
          tracePid_, traceLane_, strCat("wait:", slotNames_.name(slotId)),
          "stall", toSeconds(clock_), toSeconds(completion));
    clock_ = completion;
  }

  /// Naive-loop or element-wise compute of `flops`.
  void compute(std::int64_t flops, ComputeRate rate) {
    if (rate == ComputeRate::kNaive) {
      counters_.flops += flops;
      charge("naive_compute", flops,
             config_.cpeComputeTime(flops, config_.naiveFlopsPerCycle));
    } else {
      charge("elementwise", flops,
             config_.cpeComputeTime(flops, config_.elementwiseFlopsPerCycle));
    }
  }

  /// One micro-kernel call of `flops` on the generated (mr, nr) register
  /// block, at ArchConfig::microKernelEfficiency(mr, nr); the vendor
  /// (4, 8) block runs at asmKernelEfficiency.
  void computeMicro(std::int64_t flops, int mr, int nr) {
    ++counters_.microKernelCalls;
    counters_.flops += flops;
    charge("microkernel", flops,
           config_.cpeComputeTime(flops, config_.cpeFlopsPerCycle,
                                  config_.microKernelEfficiency(mr, nr)));
  }

  /// Count a barrier and return the clock this CPE reaches it with.  A CPE
  /// stalled `late` ticks (an injected fault) arrives that much later, and
  /// every CPE inherits the delay through the barrier's max.
  SimTime arrive(SimTime late) {
    ++counters_.syncs;
    if (late > 0) {
      counters_.waitStallTicks = addTicks(counters_.waitStallTicks, late);
      counters_.syncStallTicks = addTicks(counters_.syncStallTicks, late);
      advance(late);
    }
    return clock_;
  }

  /// Leave the barrier once every CPE has arrived, the latest at `meshMax`.
  void leave(SimTime meshMax) {
    const SimTime entry = clock_;
    clock_ = addTicks(std::max(clock_, meshMax), syncTicks_);
    counters_.syncStallTicks =
        addTicks(counters_.syncStallTicks, clock_ - entry);
    if (tracing_)
      trace::Tracer::global().simSpan(tracePid_, traceLane_, "sync", "sync",
                                      toSeconds(entry), toSeconds(clock_));
  }

  /// Retry backoff: the clock stalls `ticks` without doing work.
  void stall(SimTime ticks) {
    if (ticks <= 0) return;
    counters_.waitStallTicks = addTicks(counters_.waitStallTicks, ticks);
    counters_.retryStallTicks = addTicks(counters_.retryStallTicks, ticks);
    advance(ticks);
  }

  /// Count one engine-level DMA retry against this CPE.
  void noteRetry() { ++counters_.dmaRetries; }
  void noteFaults(int injected) { counters_.faultsInjected += injected; }

  /// The steady-state view of this state (TimingSnapshot): the DMA engine
  /// and every reply completion relative to the clock, clipped at 0, and
  /// each slot's in-flight flag.
  void snapshot(TimingSnapshot& out) const {
    out.clock = clock_;
    out.counters = counters_;
    out.relative.clear();
    out.relative.push_back(ahead(dmaEngineBusyUntil_));
    for (const Reply& reply : replies_) {
      out.relative.push_back(ahead(reply.completion));
      out.relative.push_back(reply.inFlight);
    }
  }

  /// Shift every clock by `ticks` and add `times` · `delta` to the
  /// counters: a steady-state jump.
  void shift(SimTime ticks, const CpeCounters& delta, std::int64_t times) {
    clock_ = addTicks(clock_, ticks);
    dmaEngineBusyUntil_ = addTicks(dmaEngineBusyUntil_, ticks);
    for (Reply& reply : replies_)
      reply.completion = addTicks(reply.completion, ticks);
    counters_.addScaled(delta, times);
  }

 private:
  struct Reply {
    SimTime completion = 0;
    bool inFlight = false;
  };

  void advance(SimTime ticks) { clock_ = addTicks(clock_, ticks); }

  /// Compute of `ticks` on the CPE clock.
  void charge(const char* name, std::int64_t flops, SimTime ticks) {
    const SimTime start = clock_;
    advance(ticks);
    counters_.computeTicks = addTicks(counters_.computeTicks, ticks);
    if (tracing_)
      trace::Tracer::global().simSpan(tracePid_, traceLane_, name, "compute",
                                      toSeconds(start), toSeconds(clock_),
                                      {trace::arg("flops", flops)});
  }

  /// How far `time` lies ahead of the clock; 0 when it has passed.
  [[nodiscard]] SimTime ahead(SimTime time) const {
    return time > clock_ ? time - clock_ : 0;
  }

  const ArchConfig& config_;
  const NameTable& slotNames_;
  int tracePid_;
  int traceLane_;
  bool tracing_;
  SimTime syncTicks_;
  SimTime clock_ = 0;
  SimTime dmaEngineBusyUntil_ = 0;
  CpeCounters counters_;
  std::vector<Reply> replies_;
};

}  // namespace sw::sunway
