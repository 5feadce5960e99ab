// Data-movement statements introduced into schedule trees by extension
// nodes (§4, §5 of the paper).
//
// A CopyStmt is the compiler-internal description of one athread
// communication call plus its reply bookkeeping.  The address arguments are
// kept symbolic: affine expressions over the *schedule dimensions* (mt, nt,
// Rid, Cid, ko, ki, b) and the structure parameters (M, N, K, B), exactly
// the information the paper derives from the affine relation attached to
// the extension node (its Eq. (1)).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "poly/affine.h"

namespace sw::sched {

/// Which communication primitive the statement lowers to.
enum class CopyKind {
  kDmaGet,        // main memory -> SPM
  kDmaPut,        // SPM -> main memory
  kRmaRowBcast,   // sender's SPM -> every CPE in the same mesh row
  kRmaColBcast,   // sender's SPM -> every CPE in the same mesh column
};

/// Identifies one of the nine SPM buffers of §6.3.  Double-buffered arrays
/// use `phase` to alternate; the runtime resolves (set, phase) to a concrete
/// SPM address.
struct SpmBufferRef {
  std::string set;  // "C", "A_dma", "B_dma", "A_rma", "B_rma"
  /// Parity selector over a schedule variable: buffer index =
  /// (phaseVar + phaseOffset) mod 2 when double-buffered, else 0.
  std::optional<std::string> phaseVar;
  std::int64_t phaseOffset = 0;

  bool operator==(const SpmBufferRef&) const = default;
};

/// Condition guarding execution to one sender per row/column, e.g.
/// Cid == ki.  Empty var means unconditional.
struct SenderGuard {
  std::string meshVar;       // "Rid" or "Cid"
  poly::AffineExpr equals;   // expression over schedule vars

  bool operator==(const SenderGuard&) const = default;
};

struct CopyStmt {
  std::string name;  // e.g. "getA", "putC", "rbcastA" — used in printing
  CopyKind kind = CopyKind::kDmaGet;

  std::string array;  // global array name ("A", "B", "C")
  SpmBufferRef buffer;

  // --- main-memory coordinates (DMA only); see Eq. (1) ---
  /// Optional leading batch subscript.
  std::optional<poly::AffineExpr> batchIndex;
  poly::AffineExpr rowStart;  // r in Mat[r][c]
  poly::AffineExpr colStart;  // c in Mat[r][c]
  /// Names of the parameters giving the global matrix shape X x Y
  /// ("M","K" for A; "K","N" for B; "M","N" for C).
  std::string rowsParam;
  std::string colsParam;

  // --- tile shape: X_tau x Y_tau ---
  std::int64_t tileRows = 0;
  std::int64_t tileCols = 0;

  /// Schedule variable whose value (modulo the mesh width) selects the
  /// sending CPE for RMA broadcasts; unset for DMA.
  std::optional<SenderGuard> senderGuard;

  /// RMA only: the sender-side SPM buffer the broadcast reads from (the
  /// DMA-staged tile); `buffer` above is the receive buffer on every CPE.
  SpmBufferRef rmaSource;

  /// Reply slot this operation signals.  Wait statements reference the same
  /// slot name.
  std::string replySlot;

  /// Edge-tile mode (DMA only): clamp the transferred extent at runtime to
  /// min(tile, bound - offset) per dimension, where the bounds are the
  /// `rowsParam`/`colsParam` parameters.  The SPM destination keeps the
  /// full-tile row stride so in-SPM consumers (transpose, scaling, the
  /// micro-kernel) see an unchanged layout; a fully out-of-range tile
  /// degenerates to a zero-byte transfer that still signals its reply slot.
  bool clampToBounds = false;

  [[nodiscard]] std::int64_t sizeElements() const {
    return tileRows * tileCols;
  }

  bool operator==(const CopyStmt&) const = default;
};

/// A reply-wait statement (dma_wait_value / rma_wait_value); separated from
/// the issuing statement so loop peeling can move it (§6.2: the ⊕ filters).
struct ReplyWaitStmt {
  std::string replySlot;
  /// Number of completions to wait for (RMA senders wait on both replys and
  /// replyr; modeled as separate slots).
  std::int64_t count = 1;
};

/// Edge-tile clamp for one compute dimension: the effective extent is
/// min(tile, P[boundParam] - origin) evaluated at runtime; non-positive
/// values skip the kernel call entirely (empty remainder tile).
struct ComputeClamp {
  poly::AffineExpr origin;  // global start index of this dimension's tile
  std::string boundParam;   // "M", "N", or "K"

  bool operator==(const ComputeClamp&) const = default;
};

/// Payload of the mark node that replaces the innermost point band with a
/// compute kernel (§7.2).  kAsm invokes the vendor-style micro-kernel,
/// kNaive the straightforward loop nest (--no-use-asm).
struct ComputeMarkInfo {
  enum class Kind { kAsm, kNaive };
  Kind kind = Kind::kAsm;
  SpmBufferRef a;  // left operand tile in SPM
  SpmBufferRef b;  // right operand tile in SPM
  SpmBufferRef c;  // accumulator tile in SPM
  std::int64_t m = 64, n = 64, k = 32;  // tile shape contract
  /// Register-block shape of the generated micro-kernel variant serving
  /// this compute (kAsm only; ignored for kNaive).  The default (4, 8) is
  /// the vendor routine's block.
  int mr = 4;
  int nr = 8;
  /// Edge-tile mode: runtime clamps per dimension.  When every effective
  /// extent equals the full tile the asm contract kernel runs unchanged;
  /// any partial extent dispatches to the strided edge kernel (the SPM
  /// tiles keep full-tile strides).
  std::optional<ComputeClamp> clampM;
  std::optional<ComputeClamp> clampN;
  std::optional<ComputeClamp> clampK;

  bool operator==(const ComputeMarkInfo&) const = default;
};

/// Payload of a mark node performing an element-wise operation over an SPM
/// tile (alpha/beta handling and the fusion patterns of §7.3).
struct ElementwiseMarkInfo {
  enum class Op {
    kBetaScaleC,  // local_C *= beta          (epilogue of the C DMA get)
    kAlphaScaleA, // local_A *= alpha         (before broadcast)
    kQuantize,    // fused prologue: quantization of the A tile
    kRelu,        // fused epilogue: activation of the C tile
    kTranspose,   // SPM-to-SPM tile transpose (op(A)/op(B) GEMM variants)
  };
  Op op = Op::kBetaScaleC;
  SpmBufferRef target;
  /// For kTranspose: `rows` x `cols` describe the SOURCE tile; the target
  /// receives the cols x rows transpose.  Otherwise the target tile shape.
  std::int64_t rows = 0, cols = 0;
  /// kTranspose only: the staging buffer the DMA landed the tile in.
  std::optional<SpmBufferRef> source;
  /// The user statement this mark implements, if any (for provenance).
  std::string statement;

  bool operator==(const ElementwiseMarkInfo&) const = default;
};

}  // namespace sw::sched
