// Sequential single-CPE timing estimator.
//
// The generated GEMM code is symmetric across the mesh: every CPE executes
// the same op stream (modulo which broadcast round it sends), and a mesh
// barrier precedes every RMA round, so all logical clocks coincide at each
// synchronisation point.  Simulating one CPE with sender guards forced
// true therefore reproduces the mesh runtime's critical path while
// scaling to paper-sized shapes (15360^3) in microseconds of host time.
//
// The approximation is validated against MeshSimulator in
// tests/runtime_timing_test.cc; the only divergence is the per-round issue
// overhead (the estimator charges it every round, a real CPE only on the
// round it sends), bounded well under 1%.
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

class SymmetricCpeServices final : public CpeServices {
 public:
  explicit SymmetricCpeServices(const ArchConfig& config)
      : config_(config), tracing_(trace::enabled()) {
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
    clock_ += config_.syncSeconds;
    counters_.syncStallSeconds += config_.syncSeconds;
  }

  void dmaIssue(const DmaRequest& request) override {
    const std::int64_t bytes = request.tileRows * request.tileCols *
                               static_cast<std::int64_t>(sizeof(double));
    ++counters_.dmaMessages;
    counters_.dmaBytes += bytes;
    const double start = std::max(clock_, dmaEngineBusyUntil_);
    const double done =
        start + config_.dmaSeconds(bytes, request.tileRows);
    counters_.dmaBusySeconds += done - start;
    dmaEngineBusyUntil_ = done;
    setCompletion(request.slotId >= 0 ? request.slotId
                                      : internSlot(request.slot),
                  done);
    if (tracing_)
      trace::Tracer::global().simSpan(
          trace::kEstimatorPid, trace::kDmaLaneOffset,
          strCat("dma:", request.isPut ? "put:" : "get:", request.array),
          "dma", start, done,
          {trace::arg("bytes", bytes), trace::arg("slot", request.slot)});
    clock_ += kIssueOverheadSeconds;
  }

  void rmaIssue(const RmaRequest& request) override {
    ++counters_.rmaBroadcastsSent;
    counters_.rmaBytesSent += request.bytes;
    const double transfer = config_.rmaSeconds(request.bytes);
    counters_.rmaBusySeconds += transfer;
    setCompletion(request.slotId >= 0 ? request.slotId
                                      : internSlot(request.slot),
                  clock_ + transfer);
    if (tracing_)
      trace::Tracer::global().simSpan(
          trace::kEstimatorPid, trace::kRmaLaneOffset,
          request.isRowBroadcast() ? "rma:rowbcast" : "rma:other", "rma",
          clock_, clock_ + transfer,
          {trace::arg("bytes", request.bytes),
           trace::arg("slot", request.slot)});
    clock_ += kIssueOverheadSeconds;
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
    const double completion = slotCompletion_[index];
    if (completion > clock_) {
      counters_.waitStallSeconds += completion - clock_;
      if (isRma)
        counters_.rmaStallSeconds += completion - clock_;
      else
        counters_.dmaStallSeconds += completion - clock_;
      if (tracing_)
        trace::Tracer::global().simSpan(trace::kEstimatorPid, 0,
                                        strCat("wait:", slotNames_.at(index)),
                                        "stall", clock_, completion);
      clock_ = completion;
    }
  }

  void computeTime(double flops, ComputeRate rate) override {
    double seconds = 0.0;
    const char* name = "compute";
    switch (rate) {
      case ComputeRate::kAsmKernel:
        seconds = config_.cpeComputeSeconds(flops, config_.cpeFlopsPerCycle,
                                            config_.asmKernelEfficiency);
        ++counters_.microKernelCalls;
        counters_.flops += flops;
        name = "microkernel";
        break;
      case ComputeRate::kNaive:
        seconds = config_.cpeComputeSeconds(flops, config_.naiveFlopsPerCycle);
        counters_.flops += flops;
        name = "naive_compute";
        break;
      case ComputeRate::kElementwise:
        seconds =
            config_.cpeComputeSeconds(flops, config_.elementwiseFlopsPerCycle);
        name = "elementwise";
        break;
    }
    if (tracing_)
      trace::Tracer::global().simSpan(trace::kEstimatorPid, 0, name,
                                      "compute", clock_, clock_ + seconds,
                                      {trace::arg("flops", flops)});
    clock_ += seconds;
    counters_.computeSeconds += seconds;
  }

  void computeTimeMicro(double flops, int mr, int nr) override {
    const double seconds = config_.cpeComputeSeconds(
        flops, config_.cpeFlopsPerCycle,
        config_.microKernelEfficiency(mr, nr));
    ++counters_.microKernelCalls;
    counters_.flops += flops;
    if (tracing_)
      trace::Tracer::global().simSpan(trace::kEstimatorPid, 0, "microkernel",
                                      "compute", clock_, clock_ + seconds,
                                      {trace::arg("flops", flops)});
    clock_ += seconds;
    counters_.computeSeconds += seconds;
  }

  [[nodiscard]] double* spmPtr(std::int64_t) override { return nullptr; }
  [[nodiscard]] double clockSeconds() const override { return clock_; }
  [[nodiscard]] const CpeCounters& counters() const override {
    return counters_;
  }

  /// Estimated wall-clock including the mesh spawn overhead.
  [[nodiscard]] double totalSeconds() const {
    return clock_ + config_.spawnOverheadSeconds;
  }

 private:
  static constexpr double kIssueOverheadSeconds = 0.05e-6;

  /// Vector-indexed per-slot completion clocks (ids from the inherited
  /// per-instance interner); the hot path never hashes slot names.
  void setCompletion(int slotId, double done) {
    const auto index = static_cast<std::size_t>(slotId);
    if (index >= slotCompletion_.size()) {
      slotCompletion_.resize(index + 1, 0.0);
      slotHasMessage_.resize(index + 1, 0);
    }
    slotCompletion_[index] = done;
    slotHasMessage_[index] = 1;
  }

  const ArchConfig& config_;
  bool tracing_;
  double clock_ = 0.0;
  double dmaEngineBusyUntil_ = 0.0;
  CpeCounters counters_;
  std::vector<double> slotCompletion_;
  std::vector<unsigned char> slotHasMessage_;
};

}  // namespace sw::sunway
