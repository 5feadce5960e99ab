// Simulation of one SW26010Pro core group as 64 cooperative CPE fibers.
//
// The athread execution model is mirrored directly: athread_spawn starts
// one stackful fiber per CPE, and the calling host thread steps them in
// CPE-id order.  synch() is a mesh-wide barrier; DMA reply counters and RMA
// replys/replyr rounds park a CPE until the message it waits for exists.  A
// generated program that breaks the reply-wait discipline fails here: a
// DMA issued onto a slot whose reply was never waited for, or a wait with
// no message in flight, raises a ProtocolError naming the slot, and a pass
// in which no CPE can run raises one with a per-CPE state dump, at once and
// without any wall-clock deadline.
//
// Timing: every CPE advances a logical clock in SimTime ticks (integer
// femtoseconds) through its own CpeTiming (sunway/cpe_timing.h), whose
// rules the symmetric estimator charges too; barriers take the maximum
// across the mesh.  Software-pipelining benefit therefore *emerges* from
// the generated schedule instead of being asserted by a formula.
//
// Host memory: a run leases its fiber stacks and SPMs as one arena from a
// process-wide free list and gives it back when it ends, however it ends,
// so a run pays for the pages its kernel touches and not for the mesh.
// Every SPM is all zero at the start of every run: the extent-checked
// accessors mark each 1 KiB SPM block a run writes, and the next lease
// re-zeroes only those blocks; a read marks nothing.  A broadcast copies
// to its receivers only the live rows its request names (the sender's
// edge-tile clamp, RmaRequest::hostCopy), while its checks, timing and
// counters cover the whole modelled tile.  The arenas hold the pages runs
// touched, times the peak number of concurrent runs, until the process
// exits.  On x86-64 a fiber switch saves the callee-saved registers and
// swaps the stack pointer without a system call; other ISAs use
// swapcontext.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sunway/arch.h"
#include "sunway/cpe_timing.h"
#include "sunway/fault.h"
#include "sunway/host_memory.h"
#include "sunway/services.h"

namespace sw::sunway {

struct MeshRunResult {
  /// Wall-clock of the slowest CPE plus the spawn overhead.
  SimTime time = 0;
  CpeCounters totals;
  std::vector<SimTime> perCpeTime;
  /// Raw counters of each CPE in mesh order (rid * meshCols + cid), for
  /// per-lane attribution and the counter-invariant tests.
  std::vector<CpeCounters> perCpeCounters;
  /// Host work of the functional run, not of the modelled machine: bytes
  /// the RMA copies wrote, summed over receivers, and SPM bytes the run
  /// wrote (whole 1 KiB blocks), which the next run's lease re-zeroes.
  std::int64_t hostRmaCopyBytes = 0;
  std::int64_t hostSpmDirtyBytes = 0;
};

class MeshSimulator {
 public:
  /// `functional` selects real data movement; timing-only otherwise.
  MeshSimulator(const ArchConfig& config, bool functional);
  ~MeshSimulator();

  MeshSimulator(const MeshSimulator&) = delete;
  MeshSimulator& operator=(const MeshSimulator&) = delete;

  [[nodiscard]] HostMemory& memory() { return memory_; }
  [[nodiscard]] const ArchConfig& config() const { return config_; }
  [[nodiscard]] bool functional() const { return functional_; }

  /// Install a fault plan consulted by every CPE's DMA/RMA/sync sites on
  /// subsequent runs; nullptr (the default) disables injection.
  void setFaultPlan(std::shared_ptr<const FaultPlan> plan);

  /// athread_spawn + join: run `body` on every CPE, each on its own fiber
  /// of the calling thread.  The body receives that CPE's services, and
  /// every CPE's SPM reads zero when it starts, whatever an earlier run
  /// left.  The first exception any CPE throws is rethrown here once every
  /// CPE has finished or unwound.  The run leases its stacks and SPMs from
  /// the process-wide arenas and returns them before it returns or throws;
  /// a run started from inside a CPE is refused (InternalError).
  MeshRunResult run(const std::function<void(CpeServices&)>& body);

  /// Internal mesh state; public so the per-CPE services implementation in
  /// mesh.cc can reach it without a forest of friend declarations.
  class Impl;

 private:
  std::unique_ptr<Impl> impl_;
  ArchConfig config_;
  bool functional_;
  HostMemory memory_;
};

}  // namespace sw::sunway
