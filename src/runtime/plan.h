// Lowered execution plans: the hot-path engine behind functional runs and
// timing estimates.
//
// The schedule structure of a generated kernel is entirely static — loop
// nests, buffer phases, reply slots and request shapes never depend on the
// data.  `lowerToPlan` therefore runs once per compiled kernel and turns
// the KernelProgram AST into a flat instruction stream over a dense integer
// frame:
//   * every variable binding site (param, Rid/Cid, loop var, assign var)
//     becomes its own frame slot, resolved at lowering time — shadowing is
//     structurally impossible (there is nothing left to erase);
//   * affine expressions become (coeff, slot) term vectors plus floordiv
//     terms over a shared expression pool;
//   * buffer references become a precomputed (base, stride, phase) triple,
//     so resolving a double-buffered SPM address is one mod and one
//     multiply;
//   * DMA/RMA requests are pre-validated and pre-filled templates — the
//     per-iteration work is evaluating 2–3 affine expressions and writing
//     the integers into the template;
//   * reply slots and array names are interned: the executor binds them to
//     the runtime's dense ids once per run (CpeServices::internSlot /
//     internArray) and the steady state never touches a string.
//
// `runCpePlan` executes the plan against a CpeServices backend with
// semantics bit-identical to the tree-walking interpreter (see
// tests/plan_equivalence_test.cc), including the DMA retry protocol under
// fault injection.
//
// In a functional run the executor also tracks live extents: for each
// resolved SPM buffer, the rows x cols its last DMA get or transpose wrote
// at the full-tile stride (an edge-tile clamp leaves the rest stale).  A
// broadcast asks the mesh to copy only the sender's live rows
// (RmaRequest::hostCopy), and element-wise ops touch only live rows.  Every
// receiver's compute clamp has the same origin and bound as the sender's
// DMA clamp, so nothing reads a word the clamped copy skipped; C, ticks
// and counters stay those of whole-tile copies.  A buffer without a record
// is handled whole.  A broadcast drops the record of its destination on
// every CPE of the line, since its receivers do not see the sender's
// clamp.
//
// Against a timing-only backend with a SteadyState (the symmetric
// estimator), the executor also fast-forwards: at a loop's back-edge it
// snapshots the relative timing state, and when it equals the one 1 or 2
// back-edges earlier it jumps the remaining uniform iterations at once
// (see sunway/estimator.h for why that is exact).  Iterations are uniform
// up to the loop's clamp horizon: the last iteration in which no edge-tile
// clamp whose origin reads the loop variable can bind.  Lowering records
// those clamps per loop; the jumped result equals stepping in every tick
// and counter (tests/fast_forward_test.cc).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "codegen/program.h"
#include "runtime/interpreter.h"
#include "schedule/extent.h"
#include "sunway/services.h"

namespace sw::rt {

/// One linear term of a lowered affine expression: coeff * frame[slot].
struct PlanTerm {
  int slot = 0;
  std::int64_t coeff = 0;
};

/// One floordiv term: coeff * floor(eval(expr) / denom).
struct PlanDivTerm {
  std::int64_t coeff = 0;
  int expr = 0;  // index into ExecutionPlan::exprs
  std::int64_t denom = 1;
};

/// A lowered affine expression; terms/divs are contiguous ranges into the
/// plan's shared pools.
struct PlanExpr {
  std::int64_t constant = 0;
  int termsBegin = 0;
  int termsEnd = 0;
  int divsBegin = 0;
  int divsEnd = 0;
};

/// Pre-resolved SPM buffer reference.  phaseSlot < 0 means the phase is
/// static and already folded into `base`; otherwise the address is
/// base + floorMod(frame[phaseSlot] + phaseOffset, phases) * stride.
struct PlanBufferRef {
  std::int64_t base = 0;
  std::int64_t stride = 0;
  std::int64_t phaseOffset = 0;
  int phaseSlot = -1;
  int phases = 1;
};

/// An edge-tile clamp `min(full, frame[boundSlot] - eval(originExpr))`;
/// it binds in an iteration where the bound leaves less than `full`.
struct PlanClamp {
  int originExpr = 0;
  int boundSlot = 0;
  std::int64_t full = 0;
};

/// A loop or assign variable bound inside a loop body, at its largest
/// value: extentValues[extent] + offset (-1 past a loop's end).
struct PlanInnerVar {
  int slot = 0;
  int extent = 0;
  std::int64_t offset = 0;
};

/// for-loop descriptor; begin/end are per-run extent-table entries (loop
/// extents only ever depend on structure parameters).
struct PlanLoop {
  int varSlot = 0;
  int limitSlot = 0;  // frame slot caching the evaluated end
  int beginExtent = 0;
  int endExtent = 0;
  int bodyPc = 0;
  int endPc = 0;
  /// Steady-state fast-forward: the variable's name and the loop's nesting
  /// depth (0 outermost), for the report and the trace; the clamps whose
  /// origin reads the variable and the variables bound in the body, as
  /// ranges into ExecutionPlan::clamps / innerVars.  `fastForward` is
  /// false when a clamp or DMA origin that reads the variable is not
  /// affine with nonnegative coefficients: the horizon search needs
  /// origins that never decrease.
  std::string var;
  int depth = 0;
  bool fastForward = true;
  int clampsBegin = 0, clampsEnd = 0;
  int innerBegin = 0, innerEnd = 0;
};

/// Peeled single iteration: frame[varSlot] = extentValues[extent].
struct PlanAssign {
  int varSlot = 0;
  int extent = 0;
};

/// Pre-filled DMA request template.  Per iteration the executor evaluates
/// batch/row/col and the buffer phase, writes them into its mutable copy of
/// `base` and issues.
struct PlanDma {
  sunway::DmaRequest base;  // isPut/array/tile shape/slot filled at lowering
  int slot = 0;             // plan-local interned reply-slot id
  int array = 0;            // plan-local interned array id
  int batchExpr = -1;       // -1: no batch subscript (stays 0)
  int rowExpr = 0;
  int colExpr = 0;
  PlanBufferRef buffer;
  int stmt = 0;  // index into stmtNames, for error messages
  /// Edge-tile clamping: effective rows/cols = min(tile, frame[bound] -
  /// start), possibly empty; base.spmRowStrideElems carries the full-tile
  /// stride.  Bound slots are the rowsParam/colsParam parameter slots.
  bool clamp = false;
  int rowBoundSlot = -1;
  int colBoundSlot = -1;
};

/// Pre-filled RMA broadcast template plus its lowered sender guard.
struct PlanRma {
  sunway::RmaRequest base;  // kind/isSender/bytes/slot filled at lowering
  int slot = 0;
  int guardSlot = 0;  // frame slot of the guard's mesh variable (Rid/Cid)
  int guardExpr = 0;
  PlanBufferRef src;
  PlanBufferRef dst;
  int stmt = 0;
};

struct PlanWait {
  int slot = 0;  // plan-local interned reply-slot id
  bool isRowBroadcast = true;
};

struct PlanCompute {
  bool isAsm = true;
  /// Register-block variant of the generated micro-kernel (kAsm only).
  int mr = 4, nr = 8;
  std::int64_t m = 0, n = 0, k = 0;
  std::int64_t flops = 0;
  PlanBufferRef a, b, c;
  /// Edge-tile clamps (boundSlot < 0 means the dimension is unclamped):
  /// effective extent = min(full, frame[boundSlot] - eval(originExpr)).
  /// Any non-positive effective extent skips the kernel call entirely.
  int mOriginExpr = -1, nOriginExpr = -1, kOriginExpr = -1;
  int mBoundSlot = -1, nBoundSlot = -1, kBoundSlot = -1;
};

struct PlanElementwise {
  sched::ElementwiseMarkInfo::Op op = sched::ElementwiseMarkInfo::Op::kBetaScaleC;
  std::int64_t rows = 0, cols = 0;
  PlanBufferRef target;
  PlanBufferRef source;  // kTranspose only
};

enum class PlanOpcode : std::uint8_t {
  kLoop,     // a: index into loops; jumps to endPc when the range is empty
  kLoopEnd,  // a: index into loops; ++var, branch back while var < limit
  kAssign,   // a: index into assigns
  kDma,      // a: index into dmas
  kRma,      // a: index into rmas
  kWaitDma,  // a: index into waits (with retry protocol)
  kWaitRma,  // a: index into waits
  kSync,
  kCompute,      // a: index into computes
  kElementwise,  // a: index into elementwises
};

struct PlanInstr {
  PlanOpcode op = PlanOpcode::kSync;
  int a = 0;
};

/// The flat, immutable product of lowerToPlan.  Shared read-only across all
/// 64 CPE executors of a run (each executor keeps its own frame and request
/// copies).
struct ExecutionPlan {
  std::string name;  // program name, for diagnostics

  std::vector<PlanInstr> code;
  std::vector<PlanLoop> loops;
  std::vector<PlanAssign> assigns;
  std::vector<PlanDma> dmas;
  std::vector<PlanRma> rmas;
  std::vector<PlanWait> waits;
  std::vector<PlanCompute> computes;
  std::vector<PlanElementwise> elementwises;

  // Shared expression pools.
  std::vector<PlanExpr> exprs;
  std::vector<PlanTerm> terms;
  std::vector<PlanDivTerm> divTerms;

  /// Per-loop fast-forward records (PlanLoop ranges point here).
  std::vector<PlanClamp> clamps;
  std::vector<PlanInnerVar> innerVars;

  /// Loop/assign extents, deduplicated; evaluated once per run into a value
  /// table (they depend only on structure parameters).
  std::vector<sched::Extent> extents;

  /// Frame layout: total slot count, the parameter bindings and the mesh
  /// coordinate slots.  Slots not listed here are loop/assign variables and
  /// loop limits, written by the instruction stream before any read.
  int frameSlots = 0;
  std::vector<std::pair<std::string, int>> paramSlots;
  int ridSlot = -1;
  int cidSlot = -1;

  /// Interned name tables, bound to runtime ids once per run.
  std::vector<std::string> slotNames;
  std::vector<std::string> arrayNames;
  /// Statement names for error messages (validateDma parity).
  std::vector<std::string> stmtNames;
};

/// Lower `program` to an execution plan.  Performs all static validation of
/// the tree-walking interpreter up front (tile shapes, reply slots, buffer
/// and phase-variable resolution, sender guards), throwing InputError with
/// the same statement-naming messages.
[[nodiscard]] std::shared_ptr<const ExecutionPlan> lowerToPlan(
    const codegen::KernelProgram& program);

/// Execute `plan` for the CPE behind `services`; drop-in replacement for
/// runCpeProgram with bit-identical results, counters and simulated time.
void runCpePlan(const ExecutionPlan& plan,
                const std::map<std::string, std::int64_t>& params,
                const ExecScalars& scalars, sunway::CpeServices& services);

}  // namespace sw::rt
