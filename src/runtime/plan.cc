#include "runtime/plan.h"

#include <algorithm>
#include <utility>

#include "kernel/microkernel.h"
#include "sunway/cpe_timing.h"
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
    for (std::size_t i = 0; i < plan_->loops.size(); ++i) {
      PlanLoop& l = plan_->loops[i];
      l.clampsBegin = static_cast<int>(plan_->clamps.size());
      plan_->clamps.insert(plan_->clamps.end(), loopClamps_[i].begin(),
                           loopClamps_[i].end());
      l.clampsEnd = static_cast<int>(plan_->clamps.size());
      l.innerBegin = static_cast<int>(plan_->innerVars.size());
      plan_->innerVars.insert(plan_->innerVars.end(), loopInner_[i].begin(),
                              loopInner_[i].end());
      l.innerEnd = static_cast<int>(plan_->innerVars.size());
    }
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

  // --- fast-forward records: each open loop learns the variables bound in
  // its body and the clamps whose origin reads its variable ---

  void noteInnerVar(int slot, int extent, std::int64_t offset) {
    for (const int loop : openLoops_)
      loopInner_[static_cast<std::size_t>(loop)].push_back(
          {slot, extent, offset});
  }

  /// A loop fast-forwards only if every DMA or clamp origin that reads its
  /// variable never decreases: the clamp horizon search rests on that, and
  /// so does skipping the negative-origin check in jumped iterations (each
  /// origin there is at least its value in a stepped one).
  void noteOrigin(int originExpr) {
    for (const int loop : openLoops_) {
      PlanLoop& l = plan_->loops[static_cast<std::size_t>(loop)];
      if (reads(originExpr, l.varSlot) && !nonDecreasing(originExpr))
        l.fastForward = false;
    }
  }

  void noteClamp(int originExpr, int boundSlot, std::int64_t full) {
    noteOrigin(originExpr);
    for (const int loop : openLoops_)
      if (reads(originExpr,
                plan_->loops[static_cast<std::size_t>(loop)].varSlot))
        loopClamps_[static_cast<std::size_t>(loop)].push_back(
            {originExpr, boundSlot, full});
  }

  bool reads(int id, int slot) const {
    const PlanExpr& e = plan_->exprs[static_cast<std::size_t>(id)];
    for (int t = e.termsBegin; t < e.termsEnd; ++t)
      if (plan_->terms[static_cast<std::size_t>(t)].slot == slot) return true;
    for (int d = e.divsBegin; d < e.divsEnd; ++d)
      if (reads(plan_->divTerms[static_cast<std::size_t>(d)].expr, slot))
        return true;
    return false;
  }

  /// Affine with nonnegative coefficients (floordiv terms included), so
  /// the value never decreases as any variable grows.
  bool nonDecreasing(int id) const {
    const PlanExpr& e = plan_->exprs[static_cast<std::size_t>(id)];
    for (int t = e.termsBegin; t < e.termsEnd; ++t)
      if (plan_->terms[static_cast<std::size_t>(t)].coeff < 0) return false;
    for (int d = e.divsBegin; d < e.divsEnd; ++d) {
      const PlanDivTerm& div = plan_->divTerms[static_cast<std::size_t>(d)];
      if (div.coeff < 0 || div.denom <= 0 || !nonDecreasing(div.expr))
        return false;
    }
    return true;
  }

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
    l.var = loop.var;
    l.depth = static_cast<int>(openLoops_.size());
    noteInnerVar(l.varSlot, l.endExtent, -1);
    const int index = static_cast<int>(plan_->loops.size());
    plan_->loops.push_back(l);
    loopClamps_.emplace_back();
    loopInner_.emplace_back();
    emit(PlanOpcode::kLoop, index);
    plan_->loops[static_cast<std::size_t>(index)].bodyPc =
        static_cast<int>(plan_->code.size());
    openLoops_.push_back(index);
    lowerOps(loop.body);
    openLoops_.pop_back();
    emit(PlanOpcode::kLoopEnd, index);
    plan_->loops[static_cast<std::size_t>(index)].endPc =
        static_cast<int>(plan_->code.size());
    popVar(loop.var);
  }

  void lowerOp(const AssignOp& assign) {
    PlanAssign a;
    a.extent = internExtent(assign.value);
    a.varSlot = pushVar(assign.var);
    noteInnerVar(a.varSlot, a.extent, 0);
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
    if (stmt.batchIndex) {
      d.batchExpr = lowerExpr(*stmt.batchIndex);
      noteOrigin(d.batchExpr);
    }
    d.rowExpr = lowerExpr(stmt.rowStart);
    d.colExpr = lowerExpr(stmt.colStart);
    noteOrigin(d.rowExpr);
    noteOrigin(d.colExpr);
    if (stmt.clampToBounds) {
      // Edge tiles: the executor clamps rows/cols against the shape
      // parameters at issue time, keeping the full-tile SPM row stride.
      d.clamp = true;
      d.base.spmRowStrideElems = stmt.tileCols;
      d.rowBoundSlot = slotOf(stmt.rowsParam);
      d.colBoundSlot = slotOf(stmt.colsParam);
      noteClamp(d.rowExpr, d.rowBoundSlot, stmt.tileRows);
      noteClamp(d.colExpr, d.colBoundSlot, stmt.tileCols);
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
    c.flops = 2 * info.m * info.n * info.k;
    if (info.clampM) {
      c.mOriginExpr = lowerExpr(info.clampM->origin);
      c.mBoundSlot = slotOf(info.clampM->boundParam);
      noteClamp(c.mOriginExpr, c.mBoundSlot, c.m);
    }
    if (info.clampN) {
      c.nOriginExpr = lowerExpr(info.clampN->origin);
      c.nBoundSlot = slotOf(info.clampN->boundParam);
      noteClamp(c.nOriginExpr, c.nBoundSlot, c.n);
    }
    if (info.clampK) {
      c.kOriginExpr = lowerExpr(info.clampK->origin);
      c.kBoundSlot = slotOf(info.clampK->boundParam);
      noteClamp(c.kOriginExpr, c.kBoundSlot, c.k);
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
  /// Loops enclosing the op being lowered, outermost first, and each
  /// loop's fast-forward records until lower() pools them.
  std::vector<int> openLoops_;
  std::vector<std::vector<PlanClamp>> loopClamps_;
  std::vector<std::vector<PlanInnerVar>> loopInner_;
};

/// Register-machine executor over one CPE's frame.  All name resolution
/// happened at lowering; the bind step (constructor) maps the plan's
/// interned ids onto the runtime's and evaluates the extent table, so the
/// dispatch loop below touches only integers.  Against a SteadyState it
/// fast-forwards loops at their back-edges (fastForward below).
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
        steady_(services.steadyState()),
        frame_(static_cast<std::size_t>(plan.frameSlots), 0) {
    if (steady_ != nullptr) history_.resize(plan.loops.size());
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
          if (steady_ != nullptr) {
            LoopHistory& h = history_[static_cast<std::size_t>(in.a)];
            h.taken = 0;
            h.horizonKnown = false;
          }
          pc = begin < limit ? l.bodyPc : l.endPc;
          break;
        }
        case PlanOpcode::kLoopEnd: {
          const PlanLoop& l = plan_.loops[static_cast<std::size_t>(in.a)];
          std::int64_t& var = frame_[static_cast<std::size_t>(l.varSlot)];
          const std::int64_t limit =
              frame_[static_cast<std::size_t>(l.limitSlot)];
          if (++var < limit && steady_ != nullptr && l.fastForward)
            fastForward(in.a);
          pc = var < limit ? l.bodyPc : pc + 1;
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
          services_.waitSlot(slotIds_[static_cast<std::size_t>(w.slot)],
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
  static constexpr sunway::SimTime kRetryBackoffTicks = 1'000'000'000;

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

  /// Back-edge of loop `index`, its variable already at the next
  /// iteration: snapshot the timing state and, once it repeats with a
  /// period of 1 or 2 iterations, jump every whole period left before the
  /// clamp horizon.  The measured iterations lie below the horizon too, so
  /// they issue the same ops as the skipped ones.
  void fastForward(int index) {
    const PlanLoop& l = plan_.loops[static_cast<std::size_t>(index)];
    LoopHistory& h = history_[static_cast<std::size_t>(index)];
    std::int64_t& var = frame_[static_cast<std::size_t>(l.varSlot)];
    if (!h.horizonKnown) {
      h.horizon = clampHorizon(l);
      h.horizonKnown = true;
    }
    if (var > h.horizon) return;
    sunway::TimingSnapshot& now = h.snaps[h.taken % 3];
    steady_->snapshot(now);
    ++h.taken;
    for (int period = 1; period <= 2 && period < h.taken; ++period) {
      const sunway::TimingSnapshot& past = h.snaps[(h.taken - 1 - period) % 3];
      if (past.relative != now.relative) continue;
      const std::int64_t periods = (h.horizon - var + 1) / period;
      if (periods == 0) return;
      sunway::SteadyStateJump jump;
      jump.loopVar = &l.var;
      jump.depth = l.depth;
      jump.periodIterations = period;
      jump.periods = periods;
      jump.periodTicks = now.clock - past.clock;
      jump.periodCounters = now.counters.minus(past.counters);
      steady_->jump(jump);
      var += periods * period;
      h.taken = 0;
      return;
    }
  }

  /// The last iteration of `l`, from the current one on, in which no clamp
  /// whose origin reads its variable binds (the current one minus 1 when
  /// one binds now).  Origins never decrease (lowering checks), so setting
  /// every variable bound in the body to its largest value covers the whole
  /// body, and the binding iterations form a suffix: binary search.  The
  /// body's variables are dead at a back-edge, so overwriting them is safe.
  std::int64_t clampHorizon(const PlanLoop& l) {
    std::int64_t& var = frame_[static_cast<std::size_t>(l.varSlot)];
    const std::int64_t current = var;
    std::int64_t lo = current - 1;
    std::int64_t hi = frame_[static_cast<std::size_t>(l.limitSlot)] - 1;
    if (l.clampsBegin == l.clampsEnd) return hi;
    for (int i = l.innerBegin; i < l.innerEnd; ++i) {
      const PlanInnerVar& inner = plan_.innerVars[static_cast<std::size_t>(i)];
      frame_[static_cast<std::size_t>(inner.slot)] =
          extentValues_[static_cast<std::size_t>(inner.extent)] + inner.offset;
    }
    const auto uniform = [&](std::int64_t iteration) {
      var = iteration;
      for (int c = l.clampsBegin; c < l.clampsEnd; ++c) {
        const PlanClamp& clamp = plan_.clamps[static_cast<std::size_t>(c)];
        if (frame_[static_cast<std::size_t>(clamp.boundSlot)] -
                evalExpr(clamp.originExpr) <
            clamp.full)
          return false;
      }
      return true;
    };
    while (lo < hi) {
      const std::int64_t mid = lo + (hi - lo + 1) / 2;
      if (uniform(mid))
        lo = mid;
      else
        hi = mid - 1;
    }
    var = current;
    return lo;
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
    if (functional_ && !d.base.isPut)
      setLive(request.spmOffsetBytes,
              {request.tileRows, request.tileCols, d.base.tileCols});
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
    // The destination of every CPE of the line receives the sender's live
    // part, which the receivers cannot see, so later ops handle it whole.
    if (functional_) forgetLive(resolveBuffer(r.dst));
    if (!guardAlwaysTrue_ &&
        frame_[static_cast<std::size_t>(r.guardSlot)] != evalExpr(r.guardExpr))
      return;  // receivers only wait on replyr
    sunway::RmaRequest& request =
        rmaRequests_[static_cast<std::size_t>(index)];
    request.srcSpmOffsetBytes = resolveBuffer(r.src);
    request.dstSpmOffsetBytes = resolveBuffer(r.dst);
    if (functional_) {
      // The receivers' compute clamps read exactly the sender's live part.
      const LiveTile* live = findLive(request.srcSpmOffsetBytes);
      request.hostCopy =
          live != nullptr ? std::optional(live->extent) : std::nullopt;
    }
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
        services_.waitSlot(runtimeSlot, /*isRma=*/false, w.isRowBroadcast);
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
        services_.timing().noteRetry();
        services_.timing().stall(kRetryBackoffTicks << attempt);
        services_.dmaIssue(dmaRequests_[static_cast<std::size_t>(last)]);
      }
    }
  }

  void execCompute(int index) {
    const PlanCompute& c = plan_.computes[static_cast<std::size_t>(index)];
    // Edge tiles: clamp each dimension to the valid extent; a fully
    // out-of-range tile skips the kernel (and charges zero flops).
    std::int64_t m = c.m, n = c.n, k = c.k;
    std::int64_t flops = c.flops;
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
      flops = 2 * m * n * k;
    }
    if (c.isAsm)
      services_.timing().computeMicro(flops, c.mr, c.nr);
    else
      services_.timing().compute(flops, sunway::ComputeRate::kNaive);
    if (!functional_) return;
    // Full tiles: a partial tile keeps the full-tile strides and writes
    // only the leading m x n of C.
    double* cp = services_.spmPtr(resolveBuffer(c.c), c.m * c.n,
                                  sunway::TileExtent{m, n, c.n}.span());
    double* ap = services_.spmPtr(resolveBuffer(c.a), c.m * c.k, 0);
    double* bp = services_.spmPtr(resolveBuffer(c.b), c.k * c.n, 0);
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

  /// Element-wise ops touch the live part of their tile only (the whole
  /// tile when none is recorded); the modelled cost is the whole tile's.
  void execElementwise(int index) {
    const PlanElementwise& e =
        plan_.elementwises[static_cast<std::size_t>(index)];
    const std::int64_t count = e.rows * e.cols;
    services_.timing().compute(count, sunway::ComputeRate::kElementwise);
    if (!functional_) return;
    const std::int64_t target = resolveBuffer(e.target);
    if (e.op == ElementwiseMarkInfo::Op::kTranspose) {
      // The source's live rows x cols land as cols x rows of the target,
      // whose rows are e.rows doubles apart.
      const std::int64_t source = resolveBuffer(e.source);
      const sunway::TileExtent in = liveOr(source, e.rows, e.cols);
      const sunway::TileExtent out{in.cols, in.rows, e.rows};
      const double* src = services_.spmPtr(source, count, 0);
      double* dst = services_.spmPtr(target, count, out.span());
      kernel::tileTranspose(dst, src, in.rows, in.cols, in.stride,
                            out.stride);
      setLive(target, out);
      return;
    }
    const sunway::TileExtent live = liveOr(target, e.rows, e.cols);
    double* tile = services_.spmPtr(target, count, live.span());
    const auto apply = [&](double* data, std::int64_t n) {
      switch (e.op) {
        case ElementwiseMarkInfo::Op::kBetaScaleC:
          return kernel::tileScale(data, n, scalars_.beta);
        case ElementwiseMarkInfo::Op::kAlphaScaleA:
          return kernel::tileScale(data, n, scalars_.alpha);
        case ElementwiseMarkInfo::Op::kQuantize:
          return kernel::tileQuantize(data, n);
        case ElementwiseMarkInfo::Op::kRelu:
          return kernel::tileRelu(data, n);
        case ElementwiseMarkInfo::Op::kTranspose:
          return;  // handled above
      }
    };
    if (live.cols == live.stride) return apply(tile, live.rows * live.cols);
    for (std::int64_t r = 0; r < live.rows; ++r)
      apply(tile + r * live.stride, live.cols);
  }

  // --- live extents (functional runs only) ---

  /// What the last get or transpose into the buffer at `offsetBytes`
  /// wrote.  A CPE resolves a handful of buffers, so a linear search
  /// serves.
  struct LiveTile {
    std::int64_t offsetBytes = 0;
    sunway::TileExtent extent;
  };

  void setLive(std::int64_t offsetBytes, const sunway::TileExtent& extent) {
    for (LiveTile& tile : live_)
      if (tile.offsetBytes == offsetBytes) {
        tile.extent = extent;
        return;
      }
    live_.push_back({offsetBytes, extent});
  }

  void forgetLive(std::int64_t offsetBytes) {
    std::erase_if(live_, [&](const LiveTile& tile) {
      return tile.offsetBytes == offsetBytes;
    });
  }

  [[nodiscard]] const LiveTile* findLive(std::int64_t offsetBytes) const {
    for (const LiveTile& tile : live_)
      if (tile.offsetBytes == offsetBytes) return &tile;
    return nullptr;
  }

  /// The live extent of the rows x cols tile at `offsetBytes`, or the whole
  /// tile when none is recorded.
  [[nodiscard]] sunway::TileExtent liveOr(std::int64_t offsetBytes,
                                          std::int64_t rows,
                                          std::int64_t cols) const {
    const LiveTile* live = findLive(offsetBytes);
    return live != nullptr ? live->extent
                           : sunway::TileExtent{rows, cols, cols};
  }

  const ExecutionPlan& plan_;
  const ExecScalars scalars_;
  sunway::CpeServices& services_;
  const bool functional_;
  const bool guardAlwaysTrue_;
  /// Non-null for a timing-only runtime whose loops may fast-forward.
  sunway::SteadyState* const steady_;
  /// Per-loop steady-state detection state, reset whenever the loop is
  /// entered: the last three back-edge snapshots (a ring), how many were
  /// taken since entry or the last jump, and the clamp horizon.
  struct LoopHistory {
    sunway::TimingSnapshot snaps[3];
    int taken = 0;
    bool horizonKnown = false;
    std::int64_t horizon = 0;
  };
  std::vector<LoopHistory> history_;
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
  std::vector<LiveTile> live_;
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
