// The executable kernel program — the code AST produced by scanning the
// final schedule tree (§7.1).
//
// One KernelProgram describes the per-CPE athread code: nested loops,
// DMA/RMA issues, reply waits, synchronisations and compute-kernel calls.
// Two independent backends consume it:
//   * the AthreadPrinter renders it as the athread C source the paper's
//     tool emits (CPE file + MPE file), and
//   * the runtime interpreter executes it on the SW26010Pro simulator,
//     functionally (real data) or in timing mode (logical clocks only).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "schedule/copy_stmt.h"
#include "schedule/extent.h"

namespace sw::codegen {

struct Op;
using OpList = std::vector<Op>;

/// for (var = begin; var < end; ++var) { body }
struct LoopOp {
  std::string var;
  sched::Extent begin;
  sched::Extent end;
  OpList body;

  bool operator==(const LoopOp&) const = default;
};

/// Peeled single iteration: var = value; { body }  (no loop emitted).
struct AssignOp {
  std::string var;
  sched::Extent value;
  OpList body;

  bool operator==(const AssignOp&) const = default;
};

/// Issue one non-blocking DMA message (dma_iget / dma_iput); resets the
/// reply slot to zero first, per the protocol in §4.
struct DmaOp {
  sched::CopyStmt stmt;

  bool operator==(const DmaOp&) const = default;
};

/// Issue one non-blocking RMA broadcast (rma_row_ibcast / rma_col_ibcast);
/// only the CPE matching stmt.senderGuard issues, every CPE in the
/// row/column receives.
struct RmaOp {
  sched::CopyStmt stmt;

  bool operator==(const RmaOp&) const = default;
};

/// dma_wait_value / rma_wait_value on a reply slot.
struct WaitOp {
  std::string slot;
  bool isRma = false;
  /// RMA only: whether the awaited broadcast travels along a row (true) or
  /// a column (false); tells the runtime which mesh line's channel to poll.
  bool isRowBroadcast = true;

  bool operator==(const WaitOp&) const = default;
};

/// Mesh-wide synchronisation (athread synch(); required before RMA, §5).
struct SyncOp {
  bool operator==(const SyncOp&) const = default;
};

/// Micro-kernel invocation (§7.2) or the naive loop-nest fallback.
struct ComputeOp {
  sched::ComputeMarkInfo info;

  bool operator==(const ComputeOp&) const = default;
};

/// Element-wise tile operation (alpha/beta handling, fusion §7.3).
struct ElementwiseOp {
  sched::ElementwiseMarkInfo info;

  bool operator==(const ElementwiseOp&) const = default;
};

struct Op {
  std::variant<LoopOp, AssignOp, DmaOp, RmaOp, WaitOp, SyncOp, ComputeOp,
               ElementwiseOp>
      v;

  bool operator==(const Op&) const = default;
};

/// One SPM buffer set (§6.3): `phases` > 1 means double-buffered.
struct SpmBufferDecl {
  std::string set;  // "C", "A_dma", "B_dma", "A_rma", "B_rma"
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  int phases = 1;
  /// Byte offset of phase 0 within the CPE's SPM, assigned by the planner.
  std::int64_t spmOffsetBytes = 0;

  [[nodiscard]] std::int64_t bytesPerPhase() const {
    return rows * cols * static_cast<std::int64_t>(sizeof(double));
  }
  [[nodiscard]] std::int64_t totalBytes() const {
    return bytesPerPhase() * phases;
  }

  bool operator==(const SpmBufferDecl&) const = default;
};

/// Shape of a global (main-memory) array, by parameter names.
struct ArrayInfo {
  std::string name;
  /// Batch parameter name if 3D (batched GEMM), empty otherwise.
  std::string batchParam;
  std::string rowsParam;
  std::string colsParam;

  bool operator==(const ArrayInfo&) const = default;
};

struct KernelProgram {
  /// Human-readable name (used in generated file headers).
  std::string name;
  /// Structure parameter names in declaration order (e.g. M, N, K[, B]).
  std::vector<std::string> params;
  /// Global arrays accessed by DMA.
  std::vector<ArrayInfo> arrays;
  /// SPM layout.
  std::vector<SpmBufferDecl> buffers;
  /// Per-CPE body.
  OpList body;

  [[nodiscard]] const ArrayInfo& array(const std::string& name) const;
  [[nodiscard]] const SpmBufferDecl& buffer(const std::string& set) const;
  /// Total SPM bytes consumed; must not exceed the architecture's SPM size.
  [[nodiscard]] std::int64_t spmBytesUsed() const;

  /// Structural equality; compile determinism is stated in terms of it.
  bool operator==(const KernelProgram&) const = default;
};

/// Assign SPM offsets to all buffer declarations and verify the layout fits
/// in `spmBytes`.  Throws InputError when the working set exceeds the SPM
/// (the paper's tile-size model guarantees it never does for the shipped
/// configurations).
void planSpmLayout(KernelProgram& program, std::int64_t spmBytes);

/// Count the static operations in a program (loops count as one plus their
/// body); used by tests and the engineering-cost bench.
std::size_t countOps(const OpList& ops);

}  // namespace sw::codegen
