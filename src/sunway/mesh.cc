#include "sunway/mesh.h"

#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <system_error>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "sunway/cpe_timing.h"
#include "support/error.h"
#include "support/format.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace sw::sunway {

namespace {

/// One in-flight or completed broadcast round on a mesh line.
struct RmaRound {
  SimTime completion = 0;
  /// Injected transient loss: the round exists (so ordinal matching on the
  /// slot stays aligned) but carries no data; receivers fail cleanly.
  bool dropped = false;
};

/// Rounds sent on one (reply slot, mesh line) pair, in send order.
/// Receivers consume them ordinally: the generated code issues and waits
/// strictly alternately per line, so ordinal matching is exact.
using RmaChannel = std::vector<RmaRound>;

/// Compact record of one in-flight DMA, kept as interned ids so the issue
/// path never formats strings; the deadlock dump resolves names lazily.
struct PendingDmaInfo {
  int slotId = -1;
  int arrayId = -1;
  bool isPut = false;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::int64_t spmOffsetBytes = 0;
};

/// Where a CPE fiber stands.  Every state between kRunnable and kDone is a
/// park: the scheduler resumes the fiber only once what it waits for exists
/// (a lost DMA reply never does).
enum class CpeState { kRunnable, kBarrier, kRmaWait, kDmaHang, kDone };
constexpr const char* kStateNames[] = {"running", "barrier", "rma-wait",
                                       "dma-hang", "done"};

/// Stacks for the CPE fibers of every mesh one host thread runs: a single
/// mmap'd region outside the malloc heap, each stack above a PROT_NONE
/// guard page so an overflow faults instead of corrupting its neighbour.
/// Kept for the thread's lifetime and reused by each run on it.
class FiberStacks {
 public:
  static constexpr std::size_t kStackBytes = std::size_t{256} << 10;

  /// Holds the calling thread's stacks, grown to `count`, for one run.
  class Lease {
   public:
    explicit Lease(int count) : stacks_(forThisThread()) {
      SW_CHECK(!stacks_.leased_,
               "MeshSimulator::run called from inside a CPE of a running mesh");
      stacks_.reserve(static_cast<std::size_t>(count));
      stacks_.leased_ = true;
    }
    ~Lease() { stacks_.leased_ = false; }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    /// Lowest address of stack `index`.
    [[nodiscard]] char* stack(int index) const {
      return stacks_.base_ + static_cast<std::size_t>(index) * slotBytes() +
             guardBytes();
    }

   private:
    FiberStacks& stacks_;
  };

  FiberStacks() = default;
  FiberStacks(const FiberStacks&) = delete;
  FiberStacks& operator=(const FiberStacks&) = delete;
  ~FiberStacks() { release(); }

 private:
  static FiberStacks& forThisThread() {
    thread_local FiberStacks stacks;
    return stacks;
  }
  static std::size_t guardBytes() {
    static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return page;
  }
  static std::size_t slotBytes() { return guardBytes() + kStackBytes; }

  void reserve(std::size_t count) {
    if (count <= count_) return;
    release();
    void* base = ::mmap(nullptr, count * slotBytes(), PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                        -1, 0);
    if (base == MAP_FAILED)
      throw std::system_error(errno, std::generic_category(),
                              "mmap of the CPE fiber stacks");
    base_ = static_cast<char*>(base);
    count_ = count;
    for (std::size_t i = 0; i < count; ++i)
      if (::mprotect(base_ + i * slotBytes(), guardBytes(), PROT_NONE) != 0)
        throw std::system_error(errno, std::generic_category(),
                                "mprotect of a fiber stack guard page");
  }

  void release() {
    if (base_ != nullptr) ::munmap(base_, count_ * slotBytes());
    base_ = nullptr;
    count_ = 0;
  }

  char* base_ = nullptr;
  std::size_t count_ = 0;
  bool leased_ = false;
};

// Sanitizer fiber annotations.  ASan must be told of every stack switch,
// or the first exception thrown inside a fiber reads as a stack overflow
// of the host stack; TSan needs one context per fiber.
#if defined(__SANITIZE_ADDRESS__)
void asanStartSwitch(void** fakeStack, const void* bottom, std::size_t size) {
  __sanitizer_start_switch_fiber(fakeStack, bottom, size);
}
void asanFinishSwitch(void* fakeStack, const void** bottom,
                      std::size_t* size) {
  __sanitizer_finish_switch_fiber(fakeStack, bottom, size);
}
#else
void asanStartSwitch(void**, const void*, std::size_t) {}
void asanFinishSwitch(void*, const void**, std::size_t*) {}
#endif
#if defined(__SANITIZE_THREAD__)
void* tsanCurrentFiber() { return __tsan_get_current_fiber(); }
void* tsanCreateFiber() { return __tsan_create_fiber(0); }
void tsanDestroyFiber(void* fiber) { __tsan_destroy_fiber(fiber); }
void tsanSwitchTo(void* fiber) { __tsan_switch_to_fiber(fiber, 0); }
#else
void* tsanCurrentFiber() { return nullptr; }
void* tsanCreateFiber() { return nullptr; }
void tsanDestroyFiber(void*) {}
void tsanSwitchTo(void*) {}
#endif

}  // namespace

class MeshSimulator::Impl {
 public:
  Impl(MeshSimulator& owner, const ArchConfig& config, bool functional)
      : owner_(owner),
        config_(config),
        functional_(functional),
        meshSize_(config.meshSize()),
        clocks_(static_cast<std::size_t>(meshSize_), 0) {
    if (functional_) {
      spms_.resize(static_cast<std::size_t>(meshSize_));
      const std::size_t words =
          static_cast<std::size_t>(config_.spmBytes) / sizeof(double);
      for (auto& spm : spms_) spm.assign(words, 0.0);
    }
  }

  MeshSimulator& owner_;
  const ArchConfig& config_;
  bool functional_;
  int meshSize_;

  // --- barrier with clock-max completion ---
  int barrierArrived_ = 0;
  std::int64_t barrierGeneration_ = 0;
  SimTime barrierMaxClock_ = 0;
  std::vector<SimTime> clocks_;

  // --- mesh-wide interners: slot / array names -> dense ids shared by
  // every CPE, so RMA channel lines and lowered-plan bindings agree across
  // the mesh regardless of per-CPE interning order.  Ids are stable across
  // runs; per-run state (channels, rounds) is reset separately. ---
  NameTable slotNames_;
  NameTable arrayNames_;

  // --- RMA channels, indexed by interned slot id then mesh line.  Each
  // line vector is sized once, so a parked receiver's channel pointer
  // stays valid while the table grows. ---
  struct SlotChannels {
    std::vector<RmaChannel> row;
    std::vector<RmaChannel> col;
  };
  std::vector<std::unique_ptr<SlotChannels>> channels_;

  // --- per-CPE SPM (functional mode) ---
  std::vector<std::vector<double>> spms_;

  std::shared_ptr<const FaultPlan> faultPlan_;

  // --- the run in progress: the host context the fibers return to, and
  // the first error, after which every parked CPE unwinds ---
  ucontext_t hostContext_{};
  void* hostTsanFiber_ = nullptr;
  const void* hostStackBottom_ = nullptr;
  std::size_t hostStackBytes_ = 0;
  std::exception_ptr firstError_;
  bool aborted_ = false;

  /// Rendezvous channel of a broadcast: one per slot and mesh line.
  RmaChannel& lineChannel(int slotId, bool isRow, int line) {
    const std::size_t index = CpeTiming::slotIndex(slotId);
    if (channels_.size() <= index) channels_.resize(index + 1);
    auto& entry = channels_[index];
    if (!entry) entry = std::make_unique<SlotChannels>();
    auto& lines = isRow ? entry->row : entry->col;
    if (lines.empty())
      lines.resize(static_cast<std::size_t>(isRow ? config_.meshRows
                                                  : config_.meshCols));
    return lines.at(static_cast<std::size_t>(line));
  }

  void abortWith(std::exception_ptr error) {
    if (!firstError_) firstError_ = std::move(error);
    aborted_ = true;
  }
};

namespace {

/// One CPE: its services and the stackful fiber its body runs on.  The
/// body runs until it finishes or parks in sync(), an RMA round wait or a
/// lost DMA reply; the scheduler in MeshSimulator::run resumes it once the
/// wait can complete, or, after the run aborts, so the wait throws and the
/// fiber unwinds its stack.
class CpeFiber final : public CpeServices {
 public:
  using Body = std::function<void(CpeServices&)>;

  CpeFiber(MeshSimulator::Impl& mesh, int cpeId, const Body& body,
           char* stack)
      : mesh_(mesh),
        plan_(mesh.faultPlan_.get()),
        cpeId_(cpeId),
        rid_(cpeId / mesh.config_.meshCols),
        cid_(cpeId % mesh.config_.meshCols),
        timing_(mesh.config_, mesh.slotNames_, trace::kMeshPid, cpeId),
        body_(body),
        stack_(stack) {
    if (trace::enabled()) timing_.nameLanes(strCat("CPE ", rid_, ",", cid_));
  }
  ~CpeFiber() override {
    if (tsanFiber_ != nullptr) tsanDestroyFiber(tsanFiber_);
  }
  CpeFiber(const CpeFiber&) = delete;
  CpeFiber& operator=(const CpeFiber&) = delete;

  // --- scheduler side ---

  [[nodiscard]] CpeState state() const { return state_; }
  [[nodiscard]] bool started() const { return started_; }

  /// True when resuming would make progress: the fiber has not started yet,
  /// or what it parked on has arrived.
  [[nodiscard]] bool ready() const {
    switch (state_) {
      case CpeState::kRunnable: return true;
      case CpeState::kBarrier:
        return mesh_.barrierGeneration_ != waitGeneration_;
      case CpeState::kRmaWait: return waitChannel_->size() > waitRound_;
      case CpeState::kDmaHang:
      case CpeState::kDone: return false;
    }
    return false;
  }

  /// Run the fiber until it parks or finishes.
  void resume() {
    if (!started_) {
      started_ = true;
      tsanFiber_ = tsanCreateFiber();
      SW_CHECK(::getcontext(&context_) == 0, "getcontext failed");
      context_.uc_stack.ss_sp = stack_;
      context_.uc_stack.ss_size = FiberStacks::kStackBytes;
      context_.uc_link = nullptr;  // main() never returns
      const auto self = reinterpret_cast<std::uintptr_t>(this);
      ::makecontext(&context_, reinterpret_cast<void (*)()>(&entry), 2,
                    static_cast<unsigned>(self >> 32),
                    static_cast<unsigned>(self));
    }
    void* hostFakeStack = nullptr;
    tsanSwitchTo(tsanFiber_);
    asanStartSwitch(&hostFakeStack, stack_, FiberStacks::kStackBytes);
    ::swapcontext(&mesh_.hostContext_, &context_);
    asanFinishSwitch(hostFakeStack, nullptr, nullptr);
  }

  /// Mark a fiber that never started as done, so an aborted run skips it.
  void discard() { state_ = CpeState::kDone; }

  /// One line of the deadlock dump: blocked-on site, logical clock,
  /// message counters and pending descriptors.
  void describe(std::ostream& os) const {
    const std::string waitSlot = mesh_.slotNames_.name(waitSlotId_);
    os << "\n  CPE " << rid_ << "," << cid_
       << " state=" << kStateNames[static_cast<int>(state_)];
    if (state_ == CpeState::kBarrier) os << " blocked_on=\"synch()\"";
    if (state_ == CpeState::kRmaWait)
      os << " blocked_on=\"rma_wait slot='" << waitSlot
         << "' round=" << waitRound_ << '"';
    if (state_ == CpeState::kDmaHang)
      os << " blocked_on=\"dma_wait_value slot='" << waitSlot
         << "' (reply permanently dropped)\"";
    const CpeCounters& counters = timing_.counters();
    os << " clock=" << toSeconds(timing_.clock())
       << "s dma_msgs=" << counters.dmaMessages
       << " rma_sent=" << counters.rmaBroadcastsSent
       << " syncs=" << counters.syncs
       << " faults=" << counters.faultsInjected
       << " retries=" << counters.dmaRetries;
    bool any = false;
    for (const SlotState& slot : slots_) {
      if (!slot.pendingValid) continue;
      const PendingDmaInfo& dma = slot.pending;
      os << (any ? "; " : " pending_dma=[") << (dma.isPut ? "put " : "get ")
         << mesh_.arrayNames_.name(dma.arrayId)
         << " slot=" << mesh_.slotNames_.name(dma.slotId) << " " << dma.rows
         << "x" << dma.cols << "@spm+" << dma.spmOffsetBytes;
      any = true;
    }
    if (any) os << "]";
    any = false;
    for (std::size_t id = 0; id < slots_.size(); ++id) {
      if (slots_[id].rmaConsumed == 0) continue;
      os << (any ? "; " : " rma_rounds=[")
         << mesh_.slotNames_.name(static_cast<int>(id)) << ":"
         << slots_[id].rmaConsumed;
      any = true;
    }
    if (any) os << "]";
  }

  // --- CpeServices ---

  [[nodiscard]] int rid() const override { return rid_; }
  [[nodiscard]] int cid() const override { return cid_; }
  [[nodiscard]] bool functional() const override { return mesh_.functional_; }

  /// Mesh-wide interning, so all CPEs agree on ids.
  [[nodiscard]] int internSlot(const std::string& name) override {
    return mesh_.slotNames_.intern(name);
  }

  [[nodiscard]] int internArray(const std::string& name) override {
    if (mesh_.functional_ && !mesh_.owner_.memory().has(name)) return -1;
    return mesh_.arrayNames_.intern(name);
  }

  void sync() override {
    SimTime late = 0;
    if (plan_ != nullptr) {
      const FaultDecision fault =
          plan_->decide(FaultOpClass::kSync, cpeId_, syncOccurrence_++);
      timing_.noteFaults(fault.injected);
      late = fault.stallTicks;
    }
    mesh_.clocks_[static_cast<std::size_t>(cpeId_)] = timing_.arrive(late);
    if (++mesh_.barrierArrived_ == mesh_.meshSize_) {
      mesh_.barrierMaxClock_ =
          *std::max_element(mesh_.clocks_.begin(), mesh_.clocks_.end());
      mesh_.barrierArrived_ = 0;
      ++mesh_.barrierGeneration_;
    } else {
      waitGeneration_ = mesh_.barrierGeneration_;
      park(CpeState::kBarrier);
      if (mesh_.aborted_)
        throw ProtocolError("mesh aborted while waiting at a barrier");
    }
    timing_.leave(mesh_.barrierMaxClock_);
  }

  void dmaIssue(const DmaRequest& request) override {
    FaultDecision fault;
    std::int64_t occurrence = 0;
    if (plan_ != nullptr) {
      occurrence = dmaOccurrence_++;
      fault = plan_->decide(FaultOpClass::kDma, cpeId_, occurrence);
      timing_.noteFaults(fault.injected);
    }
    timing_.issueDma(request, fault.delayTicks);

    const bool dropped = fault.dropTransient || fault.dropPermanent;
    // A detected corruption on a put must not land in host memory — the
    // simulated ECC rejects the tile, so the site degrades to a transient
    // failure the interpreter can re-issue.  Corruption on a get lands in
    // SPM and is then re-fetched clean by the retry.
    const bool corruptPut = fault.corrupt && request.isPut;
    if (mesh_.functional_ && !dropped && !corruptPut) {
      moveDmaData(request);
      if (fault.corrupt) {
        double* spm = spmPtrOf(cpeId_, request.spmOffsetBytes);
        FaultPlan::corruptTile(spm, request.tileRows * request.tileCols,
                               cpeId_, occurrence);
      }
    }
    SlotState& slot = slotState(request.slotId);
    if (fault.dropPermanent) {
      slot.hang = true;
    } else if (fault.dropTransient) {
      slot.failedReason = "was dropped in transit (injected fault)";
    } else if (fault.corrupt) {
      slot.failedReason =
          request.isPut
              ? "failed ECC before reaching main memory (injected fault)"
              : "arrived corrupted (injected fault)";
    }
    slot.pendingValid = true;
    slot.pending = PendingDmaInfo{request.slotId,   request.arrayId,
                                  request.isPut,    request.tileRows,
                                  request.tileCols, request.spmOffsetBytes};
  }

  void rmaIssue(const RmaRequest& request) override {
    SW_CHECK(request.isSender, "rmaIssue called on a non-sender CPE");
    FaultDecision fault;
    if (plan_ != nullptr) {
      fault = plan_->decide(FaultOpClass::kRma, cpeId_, rmaOccurrence_++);
      timing_.noteFaults(fault.injected);
    }
    const bool isRow = request.isRowBroadcast();
    RmaChannel& channel =
        mesh_.lineChannel(request.slotId, isRow, isRow ? rid_ : cid_);
    const bool dropped = fault.dropTransient || fault.dropPermanent;
    if (mesh_.functional_ && !dropped) moveRmaData(request);
    const SimTime completion = timing_.issueRma(request, fault.delayTicks);
    // A permanently lost message appends no round, so every receiver of
    // this line parks on the slot's next ordinal until the scheduler finds
    // the mesh deadlocked.  A transient drop must instead push a failed
    // round, or receivers would silently consume the *next* round's data
    // under this ordinal and produce wrong results.
    if (!fault.dropPermanent)
      channel.push_back(RmaRound{completion, /*dropped=*/fault.dropTransient});
  }

  void waitSlot(int slotId, bool isRma, bool isRowBroadcast) override {
    if (isRma) {
      const int line = isRowBroadcast ? rid_ : cid_;
      consumeRound(mesh_.lineChannel(slotId, isRowBroadcast, line), slotId);
      return;
    }
    timing_.wait(slotId, /*isRma=*/false);
    SlotState& slot = slotState(slotId);
    if (slot.hang) {
      // The reply will never arrive: park until the run aborts.
      waitSlotId_ = slotId;
      park(CpeState::kDmaHang);
      throw ProtocolError(
          strCat("mesh aborted while waiting for a lost DMA reply on slot '",
                 mesh_.slotNames_.name(slotId), "'"));
    }
    if (slot.failedReason != nullptr) {
      const char* reason = slot.failedReason;
      slot.failedReason = nullptr;
      throw TransientError(strCat("DMA reply on slot '",
                                  mesh_.slotNames_.name(slotId), "' ",
                                  reason));
    }
    slot.pendingValid = false;
  }

  [[nodiscard]] CpeTiming& timing() override { return timing_; }

  [[nodiscard]] double* spmPtr(std::int64_t offsetBytes) override {
    if (!mesh_.functional_) return nullptr;
    return spmPtrOf(cpeId_, offsetBytes);
  }

 private:
  /// makecontext passes int arguments only, so `this` arrives split.
  static void entry(unsigned high, unsigned low) {
    reinterpret_cast<CpeFiber*>((std::uintptr_t{high} << 32) | low)->main();
  }

  [[noreturn]] void main() {
    asanFinishSwitch(nullptr, &mesh_.hostStackBottom_, &mesh_.hostStackBytes_);
    try {
      body_(*this);
    } catch (...) {
      mesh_.abortWith(std::current_exception());
    }
    state_ = CpeState::kDone;
    switchToHost(/*finished=*/true);
    std::abort();  // a finished fiber is never resumed
  }

  void switchToHost(bool finished) {
    tsanSwitchTo(mesh_.hostTsanFiber_);
    asanStartSwitch(finished ? nullptr : &fakeStack_, mesh_.hostStackBottom_,
                    mesh_.hostStackBytes_);
    ::swapcontext(&context_, &mesh_.hostContext_);
    asanFinishSwitch(fakeStack_, &mesh_.hostStackBottom_,
                     &mesh_.hostStackBytes_);
  }

  /// Yield to the scheduler until the wait `state` names can complete or
  /// the run aborts (the caller checks which).
  void park(CpeState state) {
    state_ = state;
    switchToHost(/*finished=*/false);
    state_ = CpeState::kRunnable;
  }

  double* spmPtrOf(int cpe, std::int64_t offsetBytes) {
    auto& spm = mesh_.spms_[static_cast<std::size_t>(cpe)];
    if (offsetBytes < 0 ||
        offsetBytes % static_cast<std::int64_t>(sizeof(double)) != 0 ||
        offsetBytes >= static_cast<std::int64_t>(spm.size() * sizeof(double)))
      throw ProtocolError(strCat("SPM access at byte ", offsetBytes,
                                 " outside the ", mesh_.config_.spmBytes,
                                 "-byte SPM"));
    return spm.data() + offsetBytes / static_cast<std::int64_t>(sizeof(double));
  }

  /// Resolve the host array through the interned-id cache (HostMemory is
  /// node-based, so cached pointers are stable).
  HostArray& hostArray(const DmaRequest& request) {
    const auto id = static_cast<std::size_t>(request.arrayId);
    if (id >= arrayCache_.size()) arrayCache_.resize(id + 1, nullptr);
    if (arrayCache_[id] == nullptr)
      arrayCache_[id] = &mesh_.owner_.memory().get(request.array);
    return *arrayCache_[id];
  }

  void moveDmaData(const DmaRequest& request) {
    // Edge-tile transfers clamped to nothing still signal their reply slot
    // but move no data.
    if (request.tileRows == 0 || request.tileCols == 0) return;
    HostArray& array = hostArray(request);
    SW_CHECK(array.hasData(), "functional DMA against a virtual array");
    double* spm = spmPtrOf(cpeId_, request.spmOffsetBytes);
    // SPM row stride: clamped edge tiles keep the full-tile stride so the
    // in-SPM layout matches what the compute/element-wise marks expect.
    const std::int64_t stride = request.spmRowStrideElems > 0
                                    ? request.spmRowStrideElems
                                    : request.tileCols;
    SW_CHECK(stride >= request.tileCols,
             strCat("SPM row stride ", stride, " narrower than tile row ",
                    request.tileCols));
    // Validate the SPM side of the transfer fits (last word of last row).
    const std::int64_t lastWord =
        (request.tileRows - 1) * stride + request.tileCols - 1;
    (void)spmPtrOf(cpeId_, request.spmOffsetBytes +
                               lastWord *
                                   static_cast<std::int64_t>(sizeof(double)));
    for (std::int64_t r = 0; r < request.tileRows; ++r) {
      const std::int64_t hostOffset = array.offsetOf(
          request.batchIndex, request.rowStart + r, request.colStart);
      // Right edge of the row must also be in bounds.
      (void)array.offsetOf(request.batchIndex, request.rowStart + r,
                           request.colStart + request.tileCols - 1);
      double* hostRow = array.data() + hostOffset;
      double* spmRow = spm + r * stride;
      const std::size_t bytes =
          static_cast<std::size_t>(request.tileCols) * sizeof(double);
      if (request.isPut)
        std::memcpy(hostRow, spmRow, bytes);
      else
        std::memcpy(spmRow, hostRow, bytes);
    }
  }

  void moveRmaData(const RmaRequest& request) {
    const double* src = spmPtrOf(cpeId_, request.srcSpmOffsetBytes);
    const bool isRow = request.isRowBroadcast();
    const int peers =
        isRow ? mesh_.config_.meshCols : mesh_.config_.meshRows;
    for (int p = 0; p < peers; ++p) {
      const int target = isRow ? rid_ * mesh_.config_.meshCols + p
                               : p * mesh_.config_.meshCols + cid_;
      double* dst = spmPtrOf(target, request.dstSpmOffsetBytes);
      std::memcpy(dst, src, static_cast<std::size_t>(request.bytes));
    }
  }

  /// Take the next unconsumed round on `channel`, parking until it is sent;
  /// rounds are matched ordinally per slot (issue/wait strictly alternate
  /// in generated code).
  void consumeRound(const RmaChannel& channel, int slotId) {
    const std::size_t round = slotState(slotId).rmaConsumed++;
    if (channel.size() <= round) {
      waitChannel_ = &channel;
      waitRound_ = round;
      waitSlotId_ = slotId;
      park(CpeState::kRmaWait);
      if (mesh_.aborted_)
        throw ProtocolError("mesh aborted while waiting for an RMA message");
    }
    const RmaRound r = channel[round];
    if (r.dropped)
      throw ProtocolError(strCat("RMA round ", round, " on slot '",
                                 mesh_.slotNames_.name(slotId),
                                 "' was dropped in transit (injected fault)"));
    timing_.stallUntil(r.completion, /*isRma=*/true, slotId);
  }

  /// Per-slot state indexed by the mesh-wide interned slot id (the reply
  /// completions live in the timing core): injected-failure flags, RMA
  /// round ordinal and the in-flight descriptor for the deadlock dump.
  /// Vector-indexed so the hot path is one load, no hashing.
  struct SlotState {
    bool hang = false;                   // reply permanently dropped
    const char* failedReason = nullptr;  // transient failure, cleared by wait
    std::size_t rmaConsumed = 0;
    bool pendingValid = false;
    PendingDmaInfo pending;
  };

  SlotState& slotState(int slotId) {
    const std::size_t index = CpeTiming::slotIndex(slotId);
    if (slots_.size() <= index) slots_.resize(index + 1);
    return slots_[index];
  }

  MeshSimulator::Impl& mesh_;
  const FaultPlan* plan_;  // nullptr when injection is off
  int cpeId_;
  int rid_;
  int cid_;
  CpeTiming timing_;
  std::vector<SlotState> slots_;
  // Fault bookkeeping: per-op-class ordinals (the plan's occurrence key).
  std::int64_t dmaOccurrence_ = 0;
  std::int64_t rmaOccurrence_ = 0;
  std::int64_t syncOccurrence_ = 0;
  /// HostArray pointers by interned array id, resolved lazily per run.
  std::vector<HostArray*> arrayCache_;

  // --- the fiber and what it is parked on ---
  const Body& body_;
  char* stack_;
  ucontext_t context_{};
  bool started_ = false;
  void* tsanFiber_ = nullptr;
  void* fakeStack_ = nullptr;  // ASan's fake stack while switched out
  CpeState state_ = CpeState::kRunnable;
  std::int64_t waitGeneration_ = 0;         // kBarrier
  const RmaChannel* waitChannel_ = nullptr;  // kRmaWait
  std::size_t waitRound_ = 0;                // kRmaWait
  int waitSlotId_ = -1;                      // kRmaWait, kDmaHang
};

/// The deadlock report: the counts by state, then one line per CPE.
std::string deadlockDump(
    const std::vector<std::unique_ptr<CpeFiber>>& cpes) {
  int counts[5] = {0, 0, 0, 0, 0};
  std::ostringstream os;
  for (const auto& cpe : cpes) {
    ++counts[static_cast<int>(cpe->state())];
    cpe->describe(os);
  }
  const auto count = [&](CpeState state) {
    return counts[static_cast<int>(state)];
  };
  return strCat("mesh deadlock: no runnable CPE — aborting a deadlocked "
                "mesh run (",
                count(CpeState::kBarrier), " at barrier, ",
                count(CpeState::kRmaWait), " waiting on RMA, ",
                count(CpeState::kDmaHang), " waiting on a lost DMA reply, ",
                count(CpeState::kDone), " done); per-CPE state dump:",
                os.str());
}

}  // namespace

MeshSimulator::MeshSimulator(const ArchConfig& config, bool functional)
    : config_(config), functional_(functional) {
  impl_ = std::make_unique<Impl>(*this, config_, functional_);
}

MeshSimulator::~MeshSimulator() = default;

void MeshSimulator::setFaultPlan(std::shared_ptr<const FaultPlan> plan) {
  impl_->faultPlan_ = std::move(plan);
}

MeshRunResult MeshSimulator::run(
    const std::function<void(CpeServices&)>& body) {
  Impl& mesh = *impl_;
  // Fresh per-run state (channels, barrier, errors) while keeping SPM/host
  // memory.
  mesh.channels_.clear();
  mesh.firstError_ = nullptr;
  mesh.aborted_ = false;
  mesh.barrierArrived_ = 0;
  std::fill(mesh.clocks_.begin(), mesh.clocks_.end(), 0);
  mesh.hostTsanFiber_ = tsanCurrentFiber();

  if (trace::enabled())
    trace::Tracer::global().setProcessName(trace::kMeshPid,
                                           "mesh simulator (simulated clock)");

  const FiberStacks::Lease stacks(mesh.meshSize_);
  std::vector<std::unique_ptr<CpeFiber>> cpes;
  cpes.reserve(static_cast<std::size_t>(mesh.meshSize_));
  for (int id = 0; id < mesh.meshSize_; ++id)
    cpes.push_back(
        std::make_unique<CpeFiber>(mesh, id, body, stacks.stack(id)));

  // Step the CPEs in id order, each until it finishes or parks.  A pass
  // that resumes nobody while some CPE is unfinished is a deadlock: no
  // message or barrier release can arrive any more.  After the first error
  // CPEs that never started are skipped and parked ones resume only to
  // unwind.
  for (;;) {
    bool live = false;
    bool resumed = false;
    for (const auto& cpe : cpes) {
      if (cpe->state() == CpeState::kDone) continue;
      if (mesh.aborted_ && !cpe->started()) {
        cpe->discard();
        continue;
      }
      live = true;
      if (!mesh.aborted_ && !cpe->ready()) continue;
      cpe->resume();
      resumed = true;
    }
    if (!live) break;
    if (!resumed) {
      metrics::MetricsRegistry::global().add("mesh.deadlocks", 1.0);
      SW_WARN("mesh", "event=mesh.deadlock");
      mesh.abortWith(
          std::make_exception_ptr(ProtocolError(deadlockDump(cpes))));
    }
  }
  if (mesh.firstError_) std::rethrow_exception(mesh.firstError_);

  MeshRunResult result;
  result.perCpeTime.reserve(cpes.size());
  result.perCpeCounters.reserve(cpes.size());
  for (const auto& cpe : cpes) {
    const CpeTiming& timing = cpe->timing();
    result.perCpeTime.push_back(timing.clock());
    result.perCpeCounters.push_back(timing.counters());
    result.totals.add(timing.counters());
  }
  result.time = addTicks(
      *std::max_element(result.perCpeTime.begin(), result.perCpeTime.end()),
      config_.spawnOverheadTime());
  return result;
}

}  // namespace sw::sunway
