#include "runtime/plan.h"

#include <algorithm>
#include <utility>

#include "kernel/microkernel.h"
#include "support/error.h"
#include "support/format.h"
#include "support/math_util.h"

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

/// One-shot lowering pass: resolves every name (variables, buffers, reply
/// slots, arrays) and validates every statement, so the executor's failure
/// surface shrinks to data-dependent checks (negative tile origins, unknown
/// arrays at bind time, injected faults).
class Lowerer {
 public:
  explicit Lowerer(const KernelProgram& program)
      : program_(program), plan_(std::make_shared<ExecutionPlan>()) {
    plan_->name = program.name;
  }

  std::shared_ptr<const ExecutionPlan> lower() {
    for (const std::string& param : program_.params)
      plan_->paramSlots.emplace_back(param, pushVar(param));
    plan_->ridSlot = pushVar("Rid");
    plan_->cidSlot = pushVar("Cid");
    lowerOps(program_.body);
    plan_->frameSlots = nextSlot_;
    return std::move(plan_);
  }

 private:
  // --- frame-slot scoping: each binding site gets a fresh slot; inner
  // bindings shadow outer ones for the duration of their body only ---

  int pushVar(const std::string& name) {
    const int slot = nextSlot_++;
    scope_[name].push_back(slot);
    return slot;
  }

  void popVar(const std::string& name) { scope_[name].pop_back(); }

  int slotOf(const std::string& name) const {
    auto it = scope_.find(name);
    if (it == scope_.end() || it->second.empty())
      throw InputError(strCat("plan lowering for '", program_.name,
                              "': dimension '", name, "' is unbound"));
    return it->second.back();
  }

  // --- pools ---

  int internExtent(const sched::Extent& extent) {
    for (std::size_t i = 0; i < plan_->extents.size(); ++i)
      if (plan_->extents[i] == extent) return static_cast<int>(i);
    plan_->extents.push_back(extent);
    return static_cast<int>(plan_->extents.size()) - 1;
  }

  int internName(std::vector<std::string>& table, const std::string& name) {
    for (std::size_t i = 0; i < table.size(); ++i)
      if (table[i] == name) return static_cast<int>(i);
    table.push_back(name);
    return static_cast<int>(table.size()) - 1;
  }

  /// Flatten an AffineExpr into the shared pools.  Floordiv numerators are
  /// lowered first so every expression's term/div ranges stay contiguous.
  int lowerExpr(const poly::AffineExpr& expr) {
    std::vector<PlanDivTerm> divs;
    divs.reserve(expr.floorDivTerms().size());
    for (const poly::FloorDivTerm& d : expr.floorDivTerms())
      divs.push_back({d.coeff, lowerExpr(*d.numerator), d.denominator});

    PlanExpr out;
    out.constant = expr.constantTerm();
    out.termsBegin = static_cast<int>(plan_->terms.size());
    for (const auto& [dim, coeff] : expr.coefficients())
      plan_->terms.push_back({slotOf(dim), coeff});
    out.termsEnd = static_cast<int>(plan_->terms.size());
    out.divsBegin = static_cast<int>(plan_->divTerms.size());
    for (const PlanDivTerm& d : divs) plan_->divTerms.push_back(d);
    out.divsEnd = static_cast<int>(plan_->divTerms.size());
    plan_->exprs.push_back(out);
    return static_cast<int>(plan_->exprs.size()) - 1;
  }

  /// Resolve a buffer reference against the program's SPM layout; a static
  /// phase folds into the base so the executor skips the mod entirely.
  PlanBufferRef lowerBuffer(const SpmBufferRef& ref) {
    const codegen::SpmBufferDecl& decl = program_.buffer(ref.set);
    PlanBufferRef out;
    out.phases = decl.phases;
    out.stride = decl.bytesPerPhase();
    if (ref.phaseVar) {
      out.phaseSlot = slotOf(*ref.phaseVar);
      out.base = decl.spmOffsetBytes;
      out.phaseOffset = ref.phaseOffset;
    } else {
      out.phaseSlot = -1;
      out.base = decl.spmOffsetBytes +
                 floorMod(ref.phaseOffset, decl.phases) * decl.bytesPerPhase();
    }
    return out;
  }

  void emit(PlanOpcode op, int a) { plan_->code.push_back({op, a}); }

  // --- op lowering ---

  void lowerOps(const OpList& ops) {
    for (const Op& op : ops)
      std::visit([this](const auto& o) { lowerOp(o); }, op.v);
  }

  void lowerOp(const LoopOp& loop) {
    PlanLoop l;
    l.beginExtent = internExtent(loop.begin);
    l.endExtent = internExtent(loop.end);
    l.varSlot = pushVar(loop.var);
    l.limitSlot = nextSlot_++;
    const int index = static_cast<int>(plan_->loops.size());
    plan_->loops.push_back(l);
    emit(PlanOpcode::kLoop, index);
    plan_->loops[static_cast<std::size_t>(index)].bodyPc =
        static_cast<int>(plan_->code.size());
    lowerOps(loop.body);
    emit(PlanOpcode::kLoopEnd, index);
    plan_->loops[static_cast<std::size_t>(index)].endPc =
        static_cast<int>(plan_->code.size());
    popVar(loop.var);
  }

  void lowerOp(const AssignOp& assign) {
    PlanAssign a;
    a.extent = internExtent(assign.value);
    a.varSlot = pushVar(assign.var);
    plan_->assigns.push_back(a);
    emit(PlanOpcode::kAssign, static_cast<int>(plan_->assigns.size()) - 1);
    lowerOps(assign.body);
    popVar(assign.var);
  }

  void lowerOp(const DmaOp& op) {
    const CopyStmt& stmt = op.stmt;
    const auto bad = [&](const std::string& what) {
      throw InputError(strCat("DMA statement '", stmt.name, "' on array '",
                              stmt.array, "': ", what));
    };
    if (stmt.array.empty()) bad("empty array name");
    if (stmt.tileRows <= 0 || stmt.tileCols <= 0)
      bad(strCat("non-positive tile shape ", stmt.tileRows, "x",
                 stmt.tileCols));
    if (stmt.replySlot.empty()) bad("empty reply slot");

    PlanDma d;
    d.base.isPut = stmt.kind == CopyKind::kDmaPut;
    d.base.array = stmt.array;
    d.base.tileRows = stmt.tileRows;
    d.base.tileCols = stmt.tileCols;
    d.base.slot = stmt.replySlot;
    d.slot = internName(plan_->slotNames, stmt.replySlot);
    d.array = internName(plan_->arrayNames, stmt.array);
    if (stmt.batchIndex) d.batchExpr = lowerExpr(*stmt.batchIndex);
    d.rowExpr = lowerExpr(stmt.rowStart);
    d.colExpr = lowerExpr(stmt.colStart);
    if (stmt.clampToBounds) {
      // Edge tiles: the executor clamps rows/cols against the shape
      // parameters at issue time, keeping the full-tile SPM row stride.
      d.clamp = true;
      d.base.spmRowStrideElems = stmt.tileCols;
      d.rowBoundSlot = slotOf(stmt.rowsParam);
      d.colBoundSlot = slotOf(stmt.colsParam);
    }
    d.buffer = lowerBuffer(stmt.buffer);
    if (d.buffer.base < 0)
      bad(strCat("negative SPM offset ", d.buffer.base));
    d.stmt = internName(plan_->stmtNames, stmt.name);
    plan_->dmas.push_back(std::move(d));
    emit(PlanOpcode::kDma, static_cast<int>(plan_->dmas.size()) - 1);
  }

  void lowerOp(const RmaOp& op) {
    const CopyStmt& stmt = op.stmt;
    SW_CHECK(stmt.senderGuard.has_value(), "RMA statement without a guard");
    const auto bad = [&](const std::string& what) {
      throw InputError(strCat("RMA statement '", stmt.name, "': ", what));
    };
    PlanRma r;
    r.base.kind = stmt.kind == CopyKind::kRmaRowBcast
                      ? sunway::RmaKind::kRowBroadcast
                      : sunway::RmaKind::kColBroadcast;
    r.base.isSender = true;
    r.base.bytes =
        stmt.sizeElements() * static_cast<std::int64_t>(sizeof(double));
    r.base.slot = stmt.replySlot;
    if (r.base.bytes <= 0)
      bad(strCat("non-positive transfer size ", r.base.bytes, " bytes"));
    if (stmt.replySlot.empty()) bad("empty reply slot");
    r.slot = internName(plan_->slotNames, stmt.replySlot);
    r.guardSlot = slotOf(stmt.senderGuard->meshVar);
    r.guardExpr = lowerExpr(stmt.senderGuard->equals);
    r.src = lowerBuffer(stmt.rmaSource);
    r.dst = lowerBuffer(stmt.buffer);
    if (r.src.base < 0 || r.dst.base < 0)
      bad(strCat("negative SPM offset (src ", r.src.base, ", dst ",
                 r.dst.base, ")"));
    r.stmt = internName(plan_->stmtNames, stmt.name);
    plan_->rmas.push_back(std::move(r));
    emit(PlanOpcode::kRma, static_cast<int>(plan_->rmas.size()) - 1);
  }

  void lowerOp(const WaitOp& op) {
    PlanWait w;
    w.slot = internName(plan_->slotNames, op.slot);
    w.isRowBroadcast = op.isRowBroadcast;
    plan_->waits.push_back(w);
    emit(op.isRma ? PlanOpcode::kWaitRma : PlanOpcode::kWaitDma,
         static_cast<int>(plan_->waits.size()) - 1);
  }

  void lowerOp(const SyncOp&) { emit(PlanOpcode::kSync, 0); }

  void lowerOp(const ComputeOp& op) {
    const ComputeMarkInfo& info = op.info;
    PlanCompute c;
    c.isAsm = info.kind == ComputeMarkInfo::Kind::kAsm;
    c.mr = info.mr;
    c.nr = info.nr;
    c.m = info.m;
    c.n = info.n;
    c.k = info.k;
    c.flops = 2.0 * static_cast<double>(info.m) *
              static_cast<double>(info.n) * static_cast<double>(info.k);
    if (info.clampM) {
      c.mOriginExpr = lowerExpr(info.clampM->origin);
      c.mBoundSlot = slotOf(info.clampM->boundParam);
    }
    if (info.clampN) {
      c.nOriginExpr = lowerExpr(info.clampN->origin);
      c.nBoundSlot = slotOf(info.clampN->boundParam);
    }
    if (info.clampK) {
      c.kOriginExpr = lowerExpr(info.clampK->origin);
      c.kBoundSlot = slotOf(info.clampK->boundParam);
    }
    c.a = lowerBuffer(info.a);
    c.b = lowerBuffer(info.b);
    c.c = lowerBuffer(info.c);
    plan_->computes.push_back(c);
    emit(PlanOpcode::kCompute, static_cast<int>(plan_->computes.size()) - 1);
  }

  void lowerOp(const ElementwiseOp& op) {
    const ElementwiseMarkInfo& info = op.info;
    PlanElementwise e;
    e.op = info.op;
    e.rows = info.rows;
    e.cols = info.cols;
    e.target = lowerBuffer(info.target);
    if (info.op == ElementwiseMarkInfo::Op::kTranspose) {
      SW_CHECK(info.source.has_value(), "transpose mark without source");
      e.source = lowerBuffer(*info.source);
    }
    plan_->elementwises.push_back(e);
    emit(PlanOpcode::kElementwise,
         static_cast<int>(plan_->elementwises.size()) - 1);
  }

  const KernelProgram& program_;
  std::shared_ptr<ExecutionPlan> plan_;
  std::map<std::string, std::vector<int>> scope_;
  int nextSlot_ = 0;
};

/// Register-machine executor over one CPE's frame.  All name resolution
/// happened at lowering; the bind step (constructor) maps the plan's
/// interned ids onto the runtime's and evaluates the extent table, so the
/// dispatch loop below touches only integers.
class PlanExecutor {
 public:
  PlanExecutor(const ExecutionPlan& plan,
               const std::map<std::string, std::int64_t>& params,
               const ExecScalars& scalars, sunway::CpeServices& services)
      : plan_(plan),
        scalars_(scalars),
        services_(services),
        functional_(services.functional()),
        guardAlwaysTrue_(services.guardAlwaysTrue()),
        frame_(static_cast<std::size_t>(plan.frameSlots), 0) {
    for (const auto& [name, slot] : plan.paramSlots) {
      auto it = params.find(name);
      if (it == params.end())
        throw InternalError(strCat("plan for '", plan.name, "': parameter '",
                                   name, "' is unbound"));
      frame_[static_cast<std::size_t>(slot)] = it->second;
    }
    frame_[static_cast<std::size_t>(plan.ridSlot)] = services.rid();
    frame_[static_cast<std::size_t>(plan.cidSlot)] = services.cid();

    extentValues_.reserve(plan.extents.size());
    for (const sched::Extent& extent : plan.extents)
      extentValues_.push_back(extent.evaluate(params));

    slotIds_.reserve(plan.slotNames.size());
    for (const std::string& name : plan.slotNames)
      slotIds_.push_back(services.internSlot(name));
    arrayIds_.reserve(plan.arrayNames.size());
    for (const std::string& name : plan.arrayNames)
      arrayIds_.push_back(services.internArray(name));

    dmaRequests_.reserve(plan.dmas.size());
    for (const PlanDma& d : plan.dmas) {
      sunway::DmaRequest request = d.base;
      request.slotId = slotIds_[static_cast<std::size_t>(d.slot)];
      request.arrayId = arrayIds_[static_cast<std::size_t>(d.array)];
      if (request.arrayId < 0)
        throw InputError(strCat(
            "DMA statement '",
            plan.stmtNames[static_cast<std::size_t>(d.stmt)], "' on array '",
            request.array, "': unknown array (not registered in host memory)"));
      dmaRequests_.push_back(std::move(request));
    }
    rmaRequests_.reserve(plan.rmas.size());
    for (const PlanRma& r : plan.rmas) {
      sunway::RmaRequest request = r.base;
      request.slotId = slotIds_[static_cast<std::size_t>(r.slot)];
      rmaRequests_.push_back(std::move(request));
    }
    lastDmaBySlot_.assign(plan.slotNames.size(), -1);
  }

  void run() {
    const PlanInstr* code = plan_.code.data();
    const int n = static_cast<int>(plan_.code.size());
    int pc = 0;
    while (pc < n) {
      const PlanInstr in = code[pc];
      switch (in.op) {
        case PlanOpcode::kLoop: {
          const PlanLoop& l = plan_.loops[static_cast<std::size_t>(in.a)];
          const std::int64_t begin =
              extentValues_[static_cast<std::size_t>(l.beginExtent)];
          frame_[static_cast<std::size_t>(l.varSlot)] = begin;
          const std::int64_t limit =
              extentValues_[static_cast<std::size_t>(l.endExtent)];
          frame_[static_cast<std::size_t>(l.limitSlot)] = limit;
          pc = begin < limit ? l.bodyPc : l.endPc;
          break;
        }
        case PlanOpcode::kLoopEnd: {
          const PlanLoop& l = plan_.loops[static_cast<std::size_t>(in.a)];
          const std::int64_t next =
              ++frame_[static_cast<std::size_t>(l.varSlot)];
          pc = next < frame_[static_cast<std::size_t>(l.limitSlot)]
                   ? l.bodyPc
                   : pc + 1;
          break;
        }
        case PlanOpcode::kAssign: {
          const PlanAssign& a =
              plan_.assigns[static_cast<std::size_t>(in.a)];
          frame_[static_cast<std::size_t>(a.varSlot)] =
              extentValues_[static_cast<std::size_t>(a.extent)];
          ++pc;
          break;
        }
        case PlanOpcode::kDma:
          execDma(in.a);
          ++pc;
          break;
        case PlanOpcode::kRma:
          execRma(in.a);
          ++pc;
          break;
        case PlanOpcode::kWaitDma:
          execWaitDma(in.a);
          ++pc;
          break;
        case PlanOpcode::kWaitRma: {
          const PlanWait& w = plan_.waits[static_cast<std::size_t>(in.a)];
          services_.waitSlotId(slotIds_[static_cast<std::size_t>(w.slot)],
                               /*isRma=*/true, w.isRowBroadcast);
          ++pc;
          break;
        }
        case PlanOpcode::kSync:
          services_.sync();
          ++pc;
          break;
        case PlanOpcode::kCompute:
          execCompute(in.a);
          ++pc;
          break;
        case PlanOpcode::kElementwise:
          execElementwise(in.a);
          ++pc;
          break;
      }
    }
  }

 private:
  /// Same retry budget and backoff as the tree-walking interpreter.
  static constexpr int kMaxDmaRetries = 3;
  static constexpr double kRetryBackoffSeconds = 1e-6;

  std::int64_t evalExpr(int id) const {
    const PlanExpr& e = plan_.exprs[static_cast<std::size_t>(id)];
    std::int64_t value = e.constant;
    for (int t = e.termsBegin; t < e.termsEnd; ++t) {
      const PlanTerm& term = plan_.terms[static_cast<std::size_t>(t)];
      value += term.coeff * frame_[static_cast<std::size_t>(term.slot)];
    }
    for (int d = e.divsBegin; d < e.divsEnd; ++d) {
      const PlanDivTerm& div = plan_.divTerms[static_cast<std::size_t>(d)];
      value += div.coeff * floorDiv(evalExpr(div.expr), div.denom);
    }
    return value;
  }

  std::int64_t resolveBuffer(const PlanBufferRef& ref) const {
    if (ref.phaseSlot < 0) return ref.base;
    const std::int64_t phase = floorMod(
        frame_[static_cast<std::size_t>(ref.phaseSlot)] + ref.phaseOffset,
        ref.phases);
    return ref.base + phase * ref.stride;
  }

  void execDma(int index) {
    const PlanDma& d = plan_.dmas[static_cast<std::size_t>(index)];
    sunway::DmaRequest& request =
        dmaRequests_[static_cast<std::size_t>(index)];
    request.batchIndex = d.batchExpr >= 0 ? evalExpr(d.batchExpr) : 0;
    request.rowStart = evalExpr(d.rowExpr);
    request.colStart = evalExpr(d.colExpr);
    if (d.clamp) {
      // Edge tiles: transfer min(tile, bound - offset) per dimension (the
      // template is mutable, so restore from the full-tile base first).  A
      // tile entirely past the bound becomes an empty transfer that still
      // signals its reply slot.
      request.tileRows =
          std::min(d.base.tileRows,
                   frame_[static_cast<std::size_t>(d.rowBoundSlot)] -
                       request.rowStart);
      request.tileCols =
          std::min(d.base.tileCols,
                   frame_[static_cast<std::size_t>(d.colBoundSlot)] -
                       request.colStart);
      if (request.tileRows <= 0 || request.tileCols <= 0) {
        request.tileRows = 0;
        request.tileCols = 0;
        request.rowStart = 0;
        request.colStart = 0;
      }
    }
    request.spmOffsetBytes = resolveBuffer(d.buffer);
    if ((request.rowStart | request.colStart | request.batchIndex) < 0)
      throwNegativeDma(d, request);
    lastDmaBySlot_[static_cast<std::size_t>(d.slot)] = index;
    services_.dmaIssue(request);
  }

  [[noreturn]] void throwNegativeDma(const PlanDma& d,
                                     const sunway::DmaRequest& request) const {
    const std::string prefix = strCat(
        "DMA statement '", plan_.stmtNames[static_cast<std::size_t>(d.stmt)],
        "' on array '", request.array, "': ");
    if (request.rowStart < 0 || request.colStart < 0)
      throw InputError(strCat(prefix, "negative tile origin (",
                              request.rowStart, ", ", request.colStart, ")"));
    throw InputError(
        strCat(prefix, "negative batch index ", request.batchIndex));
  }

  void execRma(int index) {
    const PlanRma& r = plan_.rmas[static_cast<std::size_t>(index)];
    if (!guardAlwaysTrue_ &&
        frame_[static_cast<std::size_t>(r.guardSlot)] != evalExpr(r.guardExpr))
      return;  // receivers only wait on replyr
    sunway::RmaRequest& request =
        rmaRequests_[static_cast<std::size_t>(index)];
    request.srcSpmOffsetBytes = resolveBuffer(r.src);
    request.dstSpmOffsetBytes = resolveBuffer(r.dst);
    services_.rmaIssue(request);
  }

  void execWaitDma(int index) {
    const PlanWait& w = plan_.waits[static_cast<std::size_t>(index)];
    const int runtimeSlot = slotIds_[static_cast<std::size_t>(w.slot)];
    // DMA replies can fail transiently under fault injection; re-issue the
    // recorded template with exponential backoff, exactly like the
    // tree-walking interpreter.
    for (int attempt = 0;; ++attempt) {
      try {
        services_.waitSlotId(runtimeSlot, /*isRma=*/false, w.isRowBroadcast);
        return;
      } catch (const TransientError& error) {
        const int last = lastDmaBySlot_[static_cast<std::size_t>(w.slot)];
        if (last < 0) throw;  // nothing to re-issue
        if (attempt >= kMaxDmaRetries)
          throw ProtocolError(
              strCat("DMA on slot '",
                     plan_.slotNames[static_cast<std::size_t>(w.slot)],
                     "' still failing after ", attempt,
                     " retries: ", error.what()));
        services_.noteDmaRetry();
        services_.stallFor(kRetryBackoffSeconds *
                           static_cast<double>(1 << attempt));
        services_.dmaIssue(dmaRequests_[static_cast<std::size_t>(last)]);
      }
    }
  }

  void execCompute(int index) {
    const PlanCompute& c = plan_.computes[static_cast<std::size_t>(index)];
    // Edge tiles: clamp each dimension to the valid extent; a fully
    // out-of-range tile skips the kernel (and charges zero flops).
    std::int64_t m = c.m, n = c.n, k = c.k;
    double flops = c.flops;
    if (c.mBoundSlot >= 0)
      m = std::min(m, frame_[static_cast<std::size_t>(c.mBoundSlot)] -
                          evalExpr(c.mOriginExpr));
    if (c.nBoundSlot >= 0)
      n = std::min(n, frame_[static_cast<std::size_t>(c.nBoundSlot)] -
                          evalExpr(c.nOriginExpr));
    if (c.kBoundSlot >= 0)
      k = std::min(k, frame_[static_cast<std::size_t>(c.kBoundSlot)] -
                          evalExpr(c.kOriginExpr));
    const bool partial = m != c.m || n != c.n || k != c.k;
    if (partial) {
      if (m <= 0 || n <= 0 || k <= 0) return;
      flops = 2.0 * static_cast<double>(m) * static_cast<double>(n) *
              static_cast<double>(k);
    }
    if (c.isAsm)
      services_.computeTimeMicro(flops, c.mr, c.nr);
    else
      services_.computeTime(flops, sunway::ComputeRate::kNaive);
    if (!functional_) return;
    double* cp = services_.spmPtr(resolveBuffer(c.c));
    double* ap = services_.spmPtr(resolveBuffer(c.a));
    double* bp = services_.spmPtr(resolveBuffer(c.b));
    if (partial) {
      // Partial tile at full-tile SPM strides: strided edge kernel, same
      // per-element accumulation order as the full-shape kernels.
      kernel::dgemmEdgeKernel(cp, ap, bp, m, n, k, /*lda=*/c.k,
                              /*ldb=*/c.n, /*ldc=*/c.n);
      return;
    }
    if (c.isAsm)
      kernel::dgemmMicroKernel(cp, ap, bp, c.m, c.n, c.k);
    else
      kernel::dgemmNaiveKernel(cp, ap, bp, c.m, c.n, c.k);
  }

  void execElementwise(int index) {
    const PlanElementwise& e =
        plan_.elementwises[static_cast<std::size_t>(index)];
    const std::int64_t count = e.rows * e.cols;
    services_.computeTime(static_cast<double>(count),
                          sunway::ComputeRate::kElementwise);
    if (!functional_) return;
    double* tile = services_.spmPtr(resolveBuffer(e.target));
    switch (e.op) {
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
        const double* src = services_.spmPtr(resolveBuffer(e.source));
        kernel::tileTranspose(tile, src, e.rows, e.cols);
        break;
      }
    }
  }

  const ExecutionPlan& plan_;
  const ExecScalars scalars_;
  sunway::CpeServices& services_;
  const bool functional_;
  const bool guardAlwaysTrue_;
  std::vector<std::int64_t> frame_;
  std::vector<std::int64_t> extentValues_;
  /// Plan-local id -> runtime id, bound once per run.
  std::vector<int> slotIds_;
  std::vector<int> arrayIds_;
  /// Per-CPE mutable request copies the hot path writes integers into.
  std::vector<sunway::DmaRequest> dmaRequests_;
  std::vector<sunway::RmaRequest> rmaRequests_;
  /// Template index of the last DMA issued per plan slot id, for retry.
  std::vector<int> lastDmaBySlot_;
};

}  // namespace

std::shared_ptr<const ExecutionPlan> lowerToPlan(
    const codegen::KernelProgram& program) {
  return Lowerer(program).lower();
}

void runCpePlan(const ExecutionPlan& plan,
                const std::map<std::string, std::int64_t>& params,
                const ExecScalars& scalars, sunway::CpeServices& services) {
  PlanExecutor(plan, params, scalars, services).run();
}

}  // namespace sw::rt
