#include "sunway/mesh.h"

#include <sys/mman.h>
#include <unistd.h>
#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
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

// Sanitizer fiber annotations.  ASan must be told of every stack switch,
// or the first exception thrown inside a fiber reads as a stack overflow
// of the host stack.  A fiber that never returns leaves its frames
// poisoned, so a reused stack is unpoisoned before a new fiber's first
// frame is written on it, and an arena before it is unmapped.  TSan needs
// one context per fiber.
#if defined(__SANITIZE_ADDRESS__)
void asanStartSwitch(void** fakeStack, const void* bottom, std::size_t size) {
  __sanitizer_start_switch_fiber(fakeStack, bottom, size);
}
void asanFinishSwitch(void* fakeStack, const void** bottom,
                      std::size_t* size) {
  __sanitizer_finish_switch_fiber(fakeStack, bottom, size);
}
void asanUnpoison(void* begin, std::size_t size) {
  __asan_unpoison_memory_region(begin, size);
}
#else
void asanStartSwitch(void**, const void*, std::size_t) {}
void asanFinishSwitch(void*, const void**, std::size_t*) {}
void asanUnpoison(void*, std::size_t) {}
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

/// What one mesh run needs on the host, in one MAP_NORESERVE mapping: per
/// CPE a PROT_NONE guard page, a fiber stack and an SPM, and one more guard
/// page past the last SPM.  A stack that overflows faults on its own guard
/// page, an SPM write past its end on the next CPE's.  Pages come in as
/// runs first touch them and stay until the process exits.
///
/// SPM is all zero at the start of every run: the accessors mark each SPM
/// block a run writes (noteWritten), and prepare() re-zeroes exactly the
/// marked blocks, so a lease never touches SPM a run only read or never
/// used.
class MeshArena {
 public:
  static constexpr std::size_t kStackBytes = std::size_t{256} << 10;
  /// Granule of the written-SPM bitmap.
  static constexpr std::size_t kBlockBytes = 1024;

  MeshArena() = default;
  MeshArena(const MeshArena&) = delete;
  MeshArena& operator=(const MeshArena&) = delete;
  ~MeshArena() { unmap(); }

  /// Make room for `cpes` CPEs of `spmBytes` SPM each, remapping when the
  /// arena is smaller, and zero what the previous run wrote.
  void prepare(int cpes, std::int64_t spmBytes) {
    const auto count = static_cast<std::size_t>(cpes);
    const std::size_t spmSlot =
        roundToPage(static_cast<std::size_t>(spmBytes));
    if (count > cpes_ || spmSlot > spmSlotBytes_)
      remap(std::max(count, cpes_), std::max(spmSlot, spmSlotBytes_));
    for (std::size_t word = 0; word < written_.size(); ++word) {
      std::uint64_t bits = written_[word];
      if (bits == 0) continue;
      written_[word] = 0;
      // A word belongs to one CPE, so each run of consecutive marked
      // blocks is one memset inside that CPE's SPM.
      const auto cpe = static_cast<int>(word / wordsPerCpe_);
      char* const words = reinterpret_cast<char*>(spm(cpe)) +
                          word % wordsPerCpe_ * 64 * kBlockBytes;
      while (bits != 0) {
        const int first = std::countr_zero(bits);
        const int length = std::countr_one(bits >> first);
        bits = length == 64 ? 0 : bits & ~(((std::uint64_t{1} << length) - 1)
                                           << first);
        std::memset(words + static_cast<std::size_t>(first) * kBlockBytes, 0,
                    static_cast<std::size_t>(length) * kBlockBytes);
      }
    }
  }

  /// Lowest address of CPE `cpe`'s fiber stack.
  [[nodiscard]] char* stack(int cpe) const { return slot(cpe) + pageBytes(); }

  [[nodiscard]] double* spm(int cpe) const {
    return reinterpret_cast<double*>(slot(cpe) + pageBytes() + kStackBytes);
  }

  /// The run wrote SPM bytes [offsetBytes, offsetBytes + bytes) of `cpe`.
  void noteWritten(int cpe, std::size_t offsetBytes, std::size_t bytes) {
    if (bytes == 0) return;
    const std::size_t base = static_cast<std::size_t>(cpe) * wordsPerCpe_ * 64;
    const std::size_t last = base + (offsetBytes + bytes - 1) / kBlockBytes;
    for (std::size_t block = base + offsetBytes / kBlockBytes; block <= last;
         ++block)
      written_[block / 64] |= std::uint64_t{1} << (block % 64);
  }

  /// SPM bytes the current run wrote, in whole blocks: what the next
  /// prepare() re-zeroes.
  [[nodiscard]] std::int64_t writtenBytes() const {
    std::int64_t blocks = 0;
    // Most words are zero, and popcount can be a library call.
    for (const std::uint64_t word : written_)
      if (word != 0) blocks += std::popcount(word);
    return blocks * static_cast<std::int64_t>(kBlockBytes);
  }

 private:
  static std::size_t pageBytes() {
    static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    return page;
  }
  static std::size_t roundToPage(std::size_t bytes) {
    return (bytes + pageBytes() - 1) / pageBytes() * pageBytes();
  }
  [[nodiscard]] std::size_t slotBytes() const {
    return pageBytes() + kStackBytes + spmSlotBytes_;
  }
  [[nodiscard]] char* slot(int cpe) const {
    return base_ + static_cast<std::size_t>(cpe) * slotBytes();
  }
  [[nodiscard]] std::size_t mappedBytes() const {
    return cpes_ * slotBytes() + pageBytes();
  }
  void remap(std::size_t cpes, std::size_t spmSlotBytes) {
    unmap();
    const std::size_t bytes =
        cpes * (pageBytes() + kStackBytes + spmSlotBytes) + pageBytes();
    void* base = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                        -1, 0);
    if (base == MAP_FAILED)
      throw std::system_error(errno, std::generic_category(),
                              "mmap of a mesh arena");
    base_ = static_cast<char*>(base);
    cpes_ = cpes;
    spmSlotBytes_ = spmSlotBytes;
    wordsPerCpe_ = (spmSlotBytes / kBlockBytes + 63) / 64;
    written_.assign(cpes * wordsPerCpe_, 0);
    for (std::size_t cpe = 0; cpe <= cpes; ++cpe)
      if (::mprotect(base_ + cpe * slotBytes(), pageBytes(), PROT_NONE) != 0)
        throw std::system_error(errno, std::generic_category(),
                                "mprotect of a mesh arena guard page");
  }

  void unmap() {
    if (base_ == nullptr) return;
    asanUnpoison(base_, mappedBytes());  // a later mapping may reuse these
    ::munmap(base_, mappedBytes());
    base_ = nullptr;
    cpes_ = 0;
    spmSlotBytes_ = 0;
    wordsPerCpe_ = 0;
    written_.clear();
  }

  char* base_ = nullptr;
  std::size_t cpes_ = 0;
  std::size_t spmSlotBytes_ = 0;  // page-rounded
  /// Bitmap words per CPE.  Each CPE's blocks start a word of their own
  /// (a page holds whole blocks, but an SPM of 48 KiB is not whole words),
  /// so no run of marked blocks reaches the next CPE's guard page.
  std::size_t wordsPerCpe_ = 0;
  /// One bit per kBlockBytes of SPM, wordsPerCpe_ words per CPE, CPE after
  /// CPE: blocks this lease's run wrote.
  std::vector<std::uint64_t> written_;
};

/// One run's arena, leased from the process-wide free list of the arenas
/// of meshes not running now: the most recently returned one (the
/// warmest), grown if the mesh needs more CPEs or SPM, else a new one.  So
/// the arenas held are the peak number of concurrent runs.  The arena goes
/// back however the run ends.  A run started from inside a CPE is
/// refused: a kernel cannot spawn a core group (athread_spawn is the
/// MPE's), and the inner run's host context would be the outer CPE's
/// fiber.
class ArenaLease {
 public:
  ArenaLease(int cpes, std::int64_t spmBytes) {
    SW_CHECK(!running_,
             "MeshSimulator::run called from inside a CPE of a running mesh");
    FreeList& list = freeList();
    {
      const std::lock_guard<std::mutex> lock(list.mutex);
      if (!list.arenas.empty()) {
        arena_ = std::move(list.arenas.back());
        list.arenas.pop_back();
      }
    }
    if (arena_ == nullptr) arena_ = std::make_unique<MeshArena>();
    arena_->prepare(cpes, spmBytes);
    running_ = true;
  }
  ~ArenaLease() {
    running_ = false;
    FreeList& list = freeList();
    const std::lock_guard<std::mutex> lock(list.mutex);
    list.arenas.push_back(std::move(arena_));
  }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  [[nodiscard]] MeshArena& operator*() const { return *arena_; }

 private:
  struct FreeList {
    std::mutex mutex;
    std::vector<std::unique_ptr<MeshArena>> arenas;
  };
  /// Never destroyed: a thread may still return an arena during exit.
  static FreeList& freeList() {
    static FreeList* const list = new FreeList;
    return *list;
  }

  static inline thread_local bool running_ = false;
  std::unique_ptr<MeshArena> arena_;
};

// Fiber switches.  On x86-64 a switch saves only what the SysV ABI makes
// the callee preserve (rbx, rbp, r12-r15, the MXCSR control bits and the
// x87 control word) on the old stack and swaps rsp: no system call, where
// glibc's swapcontext makes one (rt_sigprocmask) per switch.  Other ISAs
// use makecontext/swapcontext.

#if defined(__x86_64__)

extern "C" [[gnu::visibility("hidden")]] void sw_sunway_fiber_switch(
    void** saveSp, void* loadSp);
extern "C" [[gnu::visibility("hidden")]] void sw_sunway_fiber_start();

// sw_sunway_fiber_switch(saveSp, loadSp): push the callee-saved state,
// store rsp to *saveSp, load loadSp, pop the state saved there, return.
// sw_sunway_fiber_start: a new fiber's first return lands here, with the
// entry in r13 and its argument in r12; unwinders stop at its undefined
// return address.
asm(R"(
  .pushsection .text
  .p2align 4
  .globl sw_sunway_fiber_switch
  .hidden sw_sunway_fiber_switch
  .type sw_sunway_fiber_switch, @function
sw_sunway_fiber_switch:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  pushq %r12
  .cfi_adjust_cfa_offset 8
  pushq %r13
  .cfi_adjust_cfa_offset 8
  pushq %r14
  .cfi_adjust_cfa_offset 8
  pushq %r15
  .cfi_adjust_cfa_offset 8
  subq $16, %rsp
  .cfi_adjust_cfa_offset 16
  stmxcsr 8(%rsp)
  fnstcw (%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  fldcw (%rsp)
  ldmxcsr 8(%rsp)
  addq $16, %rsp
  .cfi_adjust_cfa_offset -16
  popq %r15
  .cfi_adjust_cfa_offset -8
  popq %r14
  .cfi_adjust_cfa_offset -8
  popq %r13
  .cfi_adjust_cfa_offset -8
  popq %r12
  .cfi_adjust_cfa_offset -8
  popq %rbx
  .cfi_adjust_cfa_offset -8
  popq %rbp
  .cfi_adjust_cfa_offset -8
  ret
  .cfi_endproc
  .size sw_sunway_fiber_switch, .-sw_sunway_fiber_switch

  .p2align 4
  .globl sw_sunway_fiber_start
  .hidden sw_sunway_fiber_start
  .type sw_sunway_fiber_start, @function
sw_sunway_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size sw_sunway_fiber_start, .-sw_sunway_fiber_start
  .popsection
)");

/// A suspended fiber: the stack pointer its callee-saved state sits under.
struct FiberContext {
  void* sp = nullptr;
};

/// Lay out the frame the first switch to `context` pops: the host's
/// control words, zeroed registers but r12 = `arg` and r13 = `entry`, and
/// sw_sunway_fiber_start as the return address, placed so the stack is
/// 16-byte aligned at its call.
void prepareFiber(FiberContext& context, char* stack, std::size_t bytes,
                  void (*entry)(void*), void* arg) {
  std::uint32_t mxcsr = 0;
  std::uint16_t fcw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fcw));
  auto* frame = reinterpret_cast<std::uint64_t*>(stack + bytes) - 11;
  std::fill(frame, frame + 11, std::uint64_t{0});
  frame[0] = fcw;
  frame[1] = mxcsr;
  frame[4] = reinterpret_cast<std::uint64_t>(entry);  // r13
  frame[5] = reinterpret_cast<std::uint64_t>(arg);    // r12
  frame[8] = reinterpret_cast<std::uint64_t>(&sw_sunway_fiber_start);
  context.sp = frame;
}

void switchFiber(FiberContext& from, const FiberContext& to) {
  sw_sunway_fiber_switch(&from.sp, to.sp);
}

#else

struct FiberContext {
  ucontext_t context{};
  void (*entry)(void*) = nullptr;
  void* arg = nullptr;
};

/// makecontext passes int arguments only, so the context arrives split.
void startFiber(unsigned high, unsigned low) {
  auto* context = reinterpret_cast<FiberContext*>(
      (static_cast<std::uintptr_t>(high) << 32) | low);
  context->entry(context->arg);
}

void prepareFiber(FiberContext& context, char* stack, std::size_t bytes,
                  void (*entry)(void*), void* arg) {
  context.entry = entry;
  context.arg = arg;
  SW_CHECK(::getcontext(&context.context) == 0, "getcontext failed");
  context.context.uc_stack.ss_sp = stack;
  context.context.uc_stack.ss_size = bytes;
  context.context.uc_link = nullptr;  // entry never returns
  const auto self = reinterpret_cast<std::uintptr_t>(&context);
  ::makecontext(&context.context, reinterpret_cast<void (*)()>(&startFiber),
                2, static_cast<unsigned>(self >> 32),
                static_cast<unsigned>(self));
}

void switchFiber(FiberContext& from, const FiberContext& to) {
  ::swapcontext(&from.context, &to.context);
}

#endif

}  // namespace

class MeshSimulator::Impl {
 public:
  Impl(MeshSimulator& owner, const ArchConfig& config, bool functional)
      : owner_(owner),
        config_(config),
        functional_(functional),
        meshSize_(config.meshSize()),
        spmCapacityBytes_(config.spmBytes / 8 * 8),
        clocks_(static_cast<std::size_t>(meshSize_), 0) {}

  MeshSimulator& owner_;
  const ArchConfig& config_;
  bool functional_;
  int meshSize_;
  /// SPM bytes a CPE may address: whole words of config_.spmBytes.
  std::int64_t spmCapacityBytes_;

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

  std::shared_ptr<const FaultPlan> faultPlan_;

  // --- the run in progress: the host context the fibers return to, and
  // the first error, after which every parked CPE unwinds ---
  FiberContext hostContext_;
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

  CpeFiber(MeshSimulator::Impl& mesh, MeshArena& arena, int cpeId,
           const Body& body)
      : mesh_(mesh),
        arena_(arena),
        plan_(mesh.faultPlan_.get()),
        cpeId_(cpeId),
        rid_(cpeId / mesh.config_.meshCols),
        cid_(cpeId % mesh.config_.meshCols),
        timing_(mesh.config_, mesh.slotNames_, trace::kMeshPid, cpeId),
        body_(body),
        stack_(arena.stack(cpeId)) {
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
      asanUnpoison(stack_, MeshArena::kStackBytes);
      prepareFiber(context_, stack_, MeshArena::kStackBytes, &entry, this);
    }
    void* hostFakeStack = nullptr;
    tsanSwitchTo(tsanFiber_);
    asanStartSwitch(&hostFakeStack, stack_, MeshArena::kStackBytes);
    switchFiber(mesh_.hostContext_, context_);
    asanFinishSwitch(hostFakeStack, nullptr, nullptr);
  }

  /// Mark a fiber that never started as done, so an aborted run skips it.
  void discard() { state_ = CpeState::kDone; }

  /// Host bytes this CPE's broadcasts copied into receivers' SPM.
  [[nodiscard]] std::int64_t rmaCopyBytes() const { return rmaCopyBytes_; }

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
        const std::int64_t bytes =
            request.tileRows * request.tileCols * kWordBytes;
        FaultPlan::corruptTile(
            spmRange(cpeId_, request.spmOffsetBytes, bytes, bytes),
            bytes / kWordBytes, cpeId_, occurrence);
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

  [[nodiscard]] double* spmPtr(std::int64_t offsetBytes, std::int64_t count,
                               std::int64_t writeCount) override {
    if (!mesh_.functional_) return nullptr;
    // Clamped so the byte size cannot overflow; past the SPM either way.
    const std::int64_t words =
        std::min(count, mesh_.spmCapacityBytes_ / kWordBytes + 1);
    return spmRange(cpeId_, offsetBytes, words * kWordBytes,
                    std::clamp<std::int64_t>(writeCount, 0, words) *
                        kWordBytes);
  }

 private:
  static constexpr std::int64_t kWordBytes = sizeof(double);

  static void entry(void* self) { static_cast<CpeFiber*>(self)->main(); }

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
    switchFiber(context_, mesh_.hostContext_);
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

  /// SPM bytes [offsetBytes, offsetBytes + bytes) of CPE `cpe`, checked
  /// over the whole range: its first word must exist and its end must lie
  /// inside the SPM.  The caller writes the first `writeBytes` of it, which
  /// the arena re-zeroes before the next run.
  double* spmRange(int cpe, std::int64_t offsetBytes, std::int64_t bytes,
                   std::int64_t writeBytes) {
    const std::int64_t capacity = mesh_.spmCapacityBytes_;
    const auto where = [&] {
      return strCat("CPE ", cpe / mesh_.config_.meshCols, ",",
                    cpe % mesh_.config_.meshCols, ": SPM access of ", bytes,
                    " bytes at byte ", offsetBytes);
    };
    if (offsetBytes < 0 || offsetBytes >= capacity || bytes < 0 ||
        bytes > capacity - offsetBytes)
      throw ProtocolError(strCat(where(), " falls outside its ",
                                 mesh_.config_.spmBytes, "-byte SPM"));
    if (offsetBytes % kWordBytes != 0)
      throw ProtocolError(strCat(where(), " is not word-aligned"));
    arena_.noteWritten(cpe, static_cast<std::size_t>(offsetBytes),
                       static_cast<std::size_t>(writeBytes));
    return arena_.spm(cpe) + offsetBytes / kWordBytes;
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
    // SPM row stride: clamped edge tiles keep the full-tile stride so the
    // in-SPM layout matches what the compute/element-wise marks expect.
    const std::int64_t stride = request.spmRowStrideElems > 0
                                    ? request.spmRowStrideElems
                                    : request.tileCols;
    SW_CHECK(stride >= request.tileCols,
             strCat("SPM row stride ", stride, " narrower than tile row ",
                    request.tileCols));
    const std::int64_t bytes =
        ((request.tileRows - 1) * stride + request.tileCols) * kWordBytes;
    double* spm = spmRange(cpeId_, request.spmOffsetBytes, bytes,
                           request.isPut ? 0 : bytes);
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

  /// Copy the broadcast into every receiver of the line, itself included.
  /// Each end is checked over the modelled `bytes`; what moves is the
  /// request's host-copy extent, in one copy from its first live word to
  /// its last (all `bytes` without one).  The words between live rows are
  /// never read, and one copy beats a copy per row at these tile widths.
  void moveRmaData(const RmaRequest& request) {
    const std::int64_t copyBytes = request.hostCopy
                                       ? request.hostCopy->span() * kWordBytes
                                       : request.bytes;
    SW_CHECK(copyBytes <= request.bytes,
             strCat("RMA host copy of ", copyBytes,
                    " bytes exceeds its modelled ", request.bytes, " bytes"));
    const double* src =
        spmRange(cpeId_, request.srcSpmOffsetBytes, request.bytes, 0);
    const bool isRow = request.isRowBroadcast();
    const int peers =
        isRow ? mesh_.config_.meshCols : mesh_.config_.meshRows;
    for (int p = 0; p < peers; ++p) {
      const int target = isRow ? rid_ * mesh_.config_.meshCols + p
                               : p * mesh_.config_.meshCols + cid_;
      double* dst = spmRange(target, request.dstSpmOffsetBytes, request.bytes,
                             copyBytes);
      std::memcpy(dst, src, static_cast<std::size_t>(copyBytes));
    }
    rmaCopyBytes_ += peers * copyBytes;
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
  MeshArena& arena_;
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
  std::int64_t rmaCopyBytes_ = 0;

  // --- the fiber and what it is parked on ---
  const Body& body_;
  char* stack_;
  FiberContext context_;
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

  const ArenaLease arena(mesh.meshSize_, config_.spmBytes);
  std::vector<std::unique_ptr<CpeFiber>> cpes;
  cpes.reserve(static_cast<std::size_t>(mesh.meshSize_));
  for (int id = 0; id < mesh.meshSize_; ++id)
    cpes.push_back(std::make_unique<CpeFiber>(mesh, *arena, id, body));

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
    result.hostRmaCopyBytes += cpe->rmaCopyBytes();
  }
  result.hostSpmDirtyBytes = (*arena).writtenBytes();
  result.time = addTicks(
      *std::max_element(result.perCpeTime.begin(), result.perCpeTime.end()),
      config_.spawnOverheadTime());
  return result;
}

}  // namespace sw::sunway
