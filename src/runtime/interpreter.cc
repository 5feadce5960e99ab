#include "runtime/interpreter.h"

#include <algorithm>

#include "kernel/microkernel.h"
#include "sunway/cpe_timing.h"
#include "support/error.h"
#include "support/format.h"

namespace sw::rt {

namespace {

using codegen::AssignOp;
using codegen::ComputeOp;
using codegen::DmaOp;
using codegen::ElementwiseOp;
using codegen::KernelProgram;
using codegen::LoopOp;
using codegen::Op;
using codegen::OpList;
using codegen::RmaOp;
using codegen::SyncOp;
using codegen::WaitOp;
using sched::ComputeMarkInfo;
using sched::CopyKind;
using sched::CopyStmt;
using sched::ElementwiseMarkInfo;
using sched::SpmBufferRef;

class Interpreter {
 public:
  Interpreter(const KernelProgram& program,
              const std::map<std::string, std::int64_t>& params,
              const ExecScalars& scalars, sunway::CpeServices& services)
      : program_(program), scalars_(scalars), services_(services) {
    env_ = params;
    env_["Rid"] = services.rid();
    env_["Cid"] = services.cid();
  }

  void run() { execute(program_.body); }

 private:
  void execute(const OpList& ops) {
    for (const Op& op : ops) std::visit([this](const auto& o) { exec(o); },
                                        op.v);
  }

  /// RAII save/restore of one env binding, so a shadowed outer variable
  /// reappears (instead of vanishing) when the inner scope exits.
  class ScopedBinding {
   public:
    ScopedBinding(std::map<std::string, std::int64_t>& env,
                  const std::string& var)
        : env_(env), var_(var) {
      auto it = env_.find(var_);
      if (it != env_.end()) {
        hadOuter_ = true;
        outerValue_ = it->second;
      }
    }
    ~ScopedBinding() {
      if (hadOuter_)
        env_[var_] = outerValue_;
      else
        env_.erase(var_);
    }
    ScopedBinding(const ScopedBinding&) = delete;
    ScopedBinding& operator=(const ScopedBinding&) = delete;

   private:
    std::map<std::string, std::int64_t>& env_;
    const std::string& var_;
    bool hadOuter_ = false;
    std::int64_t outerValue_ = 0;
  };

  void exec(const LoopOp& loop) {
    const std::int64_t begin = loop.begin.evaluate(env_);
    const std::int64_t end = loop.end.evaluate(env_);
    ScopedBinding scope(env_, loop.var);
    for (std::int64_t v = begin; v < end; ++v) {
      env_[loop.var] = v;
      execute(loop.body);
    }
  }

  void exec(const AssignOp& assign) {
    const std::int64_t value = assign.value.evaluate(env_);
    ScopedBinding scope(env_, assign.var);
    env_[assign.var] = value;
    execute(assign.body);
  }

  /// Resolve a buffer reference to an SPM byte offset, honouring the
  /// double-buffering phase selector of §6.3.
  std::int64_t resolveBuffer(const SpmBufferRef& ref) const {
    const codegen::SpmBufferDecl& decl = program_.buffer(ref.set);
    std::int64_t phase = ref.phaseOffset;
    if (ref.phaseVar) {
      auto it = env_.find(*ref.phaseVar);
      SW_CHECK(it != env_.end(),
               strCat("phase variable '", *ref.phaseVar, "' unbound"));
      phase += it->second;
    }
    phase = ((phase % decl.phases) + decl.phases) % decl.phases;
    return decl.spmOffsetBytes + phase * decl.bytesPerPhase();
  }

  /// Reject malformed DMA requests at dispatch, naming the statement, so a
  /// bad schedule fails as an InputError instead of tripping downstream
  /// SW_CHECKs (or silently corrupting timing-only runs, which never
  /// dereference and would otherwise accept anything).
  void validateDma(const sunway::DmaRequest& request,
                   const CopyStmt& stmt) const {
    const auto bad = [&](const std::string& what) {
      throw InputError(strCat("DMA statement '", stmt.name, "' on array '",
                              request.array, "': ", what));
    };
    if (request.array.empty()) bad("empty array name");
    // Clamped edge-tile requests may legally degenerate to an empty tile
    // (they still signal the reply slot); anything else must be positive.
    if (request.tileRows < 0 || request.tileCols < 0 ||
        (!stmt.clampToBounds &&
         (request.tileRows == 0 || request.tileCols == 0)))
      bad(strCat("non-positive tile shape ", request.tileRows, "x",
                 request.tileCols));
    if (request.spmOffsetBytes < 0)
      bad(strCat("negative SPM offset ", request.spmOffsetBytes));
    if (request.rowStart < 0 || request.colStart < 0)
      bad(strCat("negative tile origin (", request.rowStart, ", ",
                 request.colStart, ")"));
    if (request.batchIndex < 0)
      bad(strCat("negative batch index ", request.batchIndex));
    if (request.slot.empty()) bad("empty reply slot");
    if (request.arrayId < 0)
      bad("unknown array (not registered in host memory)");
  }

  /// Value of a structure parameter (or any bound schedule variable).
  std::int64_t envValue(const std::string& name) const {
    auto it = env_.find(name);
    SW_CHECK(it != env_.end(), strCat("parameter '", name, "' unbound"));
    return it->second;
  }

  void exec(const DmaOp& op) {
    const CopyStmt& stmt = op.stmt;
    sunway::DmaRequest request;
    request.isPut = stmt.kind == CopyKind::kDmaPut;
    request.array = stmt.array;
    request.batchIndex =
        stmt.batchIndex ? stmt.batchIndex->evaluate(env_) : 0;
    request.rowStart = stmt.rowStart.evaluate(env_);
    request.colStart = stmt.colStart.evaluate(env_);
    request.tileRows = stmt.tileRows;
    request.tileCols = stmt.tileCols;
    if (stmt.clampToBounds) {
      // Edge tiles: transfer min(tile, bound - offset) per dimension, at
      // the full-tile SPM row stride.  A tile entirely past the bound
      // becomes an empty transfer that still signals its reply slot.
      request.spmRowStrideElems = stmt.tileCols;
      request.tileRows = std::min(
          request.tileRows, envValue(stmt.rowsParam) - request.rowStart);
      request.tileCols = std::min(
          request.tileCols, envValue(stmt.colsParam) - request.colStart);
      if (request.tileRows <= 0 || request.tileCols <= 0) {
        request.tileRows = 0;
        request.tileCols = 0;
        request.rowStart = 0;
        request.colStart = 0;
      }
    }
    request.spmOffsetBytes = resolveBuffer(stmt.buffer);
    request.slot = stmt.replySlot;
    request.slotId = services_.internSlot(request.slot);
    request.arrayId = services_.internArray(request.array);
    validateDma(request, stmt);
    pendingDma_[request.slot] = request;
    services_.dmaIssue(request);
  }

  void exec(const RmaOp& op) {
    const CopyStmt& stmt = op.stmt;
    SW_CHECK(stmt.senderGuard.has_value(), "RMA statement without a guard");
    bool isSender = services_.guardAlwaysTrue();
    if (!isSender) {
      auto it = env_.find(stmt.senderGuard->meshVar);
      SW_CHECK(it != env_.end(), strCat("mesh variable '",
                                        stmt.senderGuard->meshVar,
                                        "' unbound"));
      isSender = it->second == stmt.senderGuard->equals.evaluate(env_);
    }
    if (!isSender) return;  // receivers only wait on replyr
    sunway::RmaRequest request;
    request.kind = stmt.kind == CopyKind::kRmaRowBcast
                       ? sunway::RmaKind::kRowBroadcast
                       : sunway::RmaKind::kColBroadcast;
    request.isSender = true;
    request.bytes =
        stmt.sizeElements() * static_cast<std::int64_t>(sizeof(double));
    request.srcSpmOffsetBytes = resolveBuffer(stmt.rmaSource);
    request.dstSpmOffsetBytes = resolveBuffer(stmt.buffer);
    request.slot = stmt.replySlot;
    const auto bad = [&](const std::string& what) {
      throw InputError(
          strCat("RMA statement '", stmt.name, "': ", what));
    };
    if (request.bytes <= 0)
      bad(strCat("non-positive transfer size ", request.bytes, " bytes"));
    if (request.srcSpmOffsetBytes < 0 || request.dstSpmOffsetBytes < 0)
      bad(strCat("negative SPM offset (src ", request.srcSpmOffsetBytes,
                 ", dst ", request.dstSpmOffsetBytes, ")"));
    if (request.slot.empty()) bad("empty reply slot");
    request.slotId = services_.internSlot(request.slot);
    services_.rmaIssue(request);
  }

  void exec(const WaitOp& op) {
    const int slotId = services_.internSlot(op.slot);
    if (op.isRma) {
      services_.waitSlot(slotId, /*isRma=*/true, op.isRowBroadcast);
      return;
    }
    // DMA replies can fail transiently under fault injection (dropped or
    // corrupted tiles).  Re-issue the recorded request with exponential
    // backoff; a site that keeps failing past the budget escalates to a
    // ProtocolError so the service layer can degrade.
    for (int attempt = 0;; ++attempt) {
      try {
        services_.waitSlot(slotId, /*isRma=*/false, op.isRowBroadcast);
        return;
      } catch (const TransientError& error) {
        auto pending = pendingDma_.find(op.slot);
        if (pending == pendingDma_.end()) throw;  // nothing to re-issue
        if (attempt >= kMaxDmaRetries)
          throw ProtocolError(strCat("DMA on slot '", op.slot,
                                     "' still failing after ", attempt,
                                     " retries: ", error.what()));
        services_.timing().noteRetry();
        services_.timing().stall(kRetryBackoffTicks << attempt);
        services_.dmaIssue(pending->second);
      }
    }
  }

  void exec(const SyncOp&) { services_.sync(); }

  void exec(const ComputeOp& op) {
    const ComputeMarkInfo& info = op.info;
    // Edge tiles: clamp each dimension to the valid extent; a fully
    // out-of-range tile skips the kernel (and charges zero flops).
    std::int64_t m = info.m, n = info.n, k = info.k;
    if (info.clampM)
      m = std::min(m, envValue(info.clampM->boundParam) -
                          info.clampM->origin.evaluate(env_));
    if (info.clampN)
      n = std::min(n, envValue(info.clampN->boundParam) -
                          info.clampN->origin.evaluate(env_));
    if (info.clampK)
      k = std::min(k, envValue(info.clampK->boundParam) -
                          info.clampK->origin.evaluate(env_));
    if (m <= 0 || n <= 0 || k <= 0) return;
    const std::int64_t flops = 2 * m * n * k;
    if (info.kind == ComputeMarkInfo::Kind::kAsm)
      services_.timing().computeMicro(flops, info.mr, info.nr);
    else
      services_.timing().compute(flops, sunway::ComputeRate::kNaive);
    if (!services_.functional()) return;
    // Full tiles: a partial tile keeps the full-tile strides.
    double* c = services_.spmPtr(resolveBuffer(info.c), info.m * info.n);
    double* a = services_.spmPtr(resolveBuffer(info.a), info.m * info.k, 0);
    double* b = services_.spmPtr(resolveBuffer(info.b), info.k * info.n, 0);
    if (m != info.m || n != info.n || k != info.k) {
      // Partial tile at full-tile SPM strides: strided edge kernel, same
      // per-element accumulation order as the full-shape kernels.
      kernel::dgemmEdgeKernel(c, a, b, m, n, k, /*lda=*/info.k,
                              /*ldb=*/info.n, /*ldc=*/info.n);
      return;
    }
    if (info.kind == ComputeMarkInfo::Kind::kAsm)
      kernel::dgemmMicroKernel(c, a, b, info.m, info.n, info.k);
    else
      kernel::dgemmNaiveKernel(c, a, b, info.m, info.n, info.k);
  }

  void exec(const ElementwiseOp& op) {
    const ElementwiseMarkInfo& info = op.info;
    const std::int64_t count = info.rows * info.cols;
    services_.timing().compute(count, sunway::ComputeRate::kElementwise);
    if (!services_.functional()) return;
    double* tile = services_.spmPtr(resolveBuffer(info.target), count);
    switch (info.op) {
      case ElementwiseMarkInfo::Op::kBetaScaleC:
        kernel::tileScale(tile, count, scalars_.beta);
        break;
      case ElementwiseMarkInfo::Op::kAlphaScaleA:
        kernel::tileScale(tile, count, scalars_.alpha);
        break;
      case ElementwiseMarkInfo::Op::kQuantize:
        kernel::tileQuantize(tile, count);
        break;
      case ElementwiseMarkInfo::Op::kRelu:
        kernel::tileRelu(tile, count);
        break;
      case ElementwiseMarkInfo::Op::kTranspose: {
        SW_CHECK(info.source.has_value(), "transpose mark without source");
        const double* src =
            services_.spmPtr(resolveBuffer(*info.source), count, 0);
        kernel::tileTranspose(tile, src, info.rows, info.cols);
        break;
      }
    }
  }

  /// Retry budget for transiently failed DMA and the base backoff stall
  /// (doubles per attempt: 1 µs, 2 µs, 4 µs of simulated time).
  static constexpr int kMaxDmaRetries = 3;
  static constexpr sunway::SimTime kRetryBackoffTicks = 1'000'000'000;

  const KernelProgram& program_;
  const ExecScalars scalars_;
  sunway::CpeServices& services_;
  std::map<std::string, std::int64_t> env_;
  /// Last issued DMA per reply slot, kept so a transiently failed wait can
  /// re-issue the exact same transfer.
  std::map<std::string, sunway::DmaRequest> pendingDma_;
};

}  // namespace

void runCpeProgram(const KernelProgram& program,
                   const std::map<std::string, std::int64_t>& params,
                   const ExecScalars& scalars,
                   sunway::CpeServices& services) {
  Interpreter(program, params, scalars, services).run();
}

}  // namespace sw::rt
