#include "core/pipeline.h"

#include <array>
#include <atomic>
#include <mutex>
#include <optional>
#include <utility>

#include "codegen/program_builder.h"
#include "kernel/microkernel.h"
#include "poly/dependence.h"
#include "schedule/transforms.h"
#include "support/error.h"
#include "support/format.h"
#include "support/logging.h"
#include "support/math_util.h"
#include "support/trace.h"

namespace sw::core {

namespace {

using poly::AffineExpr;
using sched::ComputeMarkInfo;
using sched::CopyKind;
using sched::CopyStmt;
using sched::ElementwiseMarkInfo;
using sched::Extent;
using sched::FilterElement;
using sched::NodePtr;
using sched::RangeRestriction;
using sched::SpmBufferRef;

AffineExpr d(const std::string& name) { return AffineExpr::dim(name); }
AffineExpr c(std::int64_t v) { return AffineExpr::constant(v); }

/// Everything the construction helpers need in one place.
struct Ctx {
  CodegenOptions opts;
  const sunway::ArchConfig* arch = nullptr;

  // Derived geometry.
  std::int64_t meshM = 0;  // tileM * meshRows (512)
  std::int64_t meshN = 0;  // tileN * meshCols (512)
  std::int64_t kStep = 0;  // K advanced per outer-k iteration (256 / 32)

  [[nodiscard]] bool batched() const { return opts.batched; }

  /// C-tile origin of this CPE within the mesh tile (Eq. (1) instantiated
  /// with Rid/Cid as §4 describes).
  [[nodiscard]] AffineExpr cRow() const {
    return d("mt") * meshM + d("Rid") * opts.tileM;
  }
  [[nodiscard]] AffineExpr cCol() const {
    return d("nt") * meshN + d("Cid") * opts.tileN;
  }
};

std::optional<AffineExpr> batchIndex(const Ctx& ctx) {
  if (!ctx.batched()) return std::nullopt;
  return d("b");
}

// ---------------------------------------------------------------------------
// Copy-statement factories (§4, §5)
// ---------------------------------------------------------------------------

CopyStmt makeGetC(const Ctx& ctx) {
  CopyStmt s;
  s.name = "getC";
  s.kind = CopyKind::kDmaGet;
  s.array = "C";
  s.buffer = SpmBufferRef{"C", std::nullopt, 0};
  s.batchIndex = batchIndex(ctx);
  s.rowStart = ctx.cRow();
  s.colStart = ctx.cCol();
  s.rowsParam = "M";
  s.colsParam = "N";
  s.tileRows = ctx.opts.tileM;
  s.tileCols = ctx.opts.tileN;
  s.clampToBounds = ctx.opts.edgeTiles;
  s.replySlot = "reply_C_get";
  return s;
}

CopyStmt makePutC(const Ctx& ctx) {
  CopyStmt s = makeGetC(ctx);
  s.name = "putC";
  s.kind = CopyKind::kDmaPut;
  s.replySlot = "reply_C_put";
  return s;
}

/// DMA of the A tile for outer-k iteration `koExpr` ("ko" or "ko + 1").
/// Without RMA every CPE in a row fetches the same slice (`kVar`*tileK),
/// the redundancy the baseline of Fig.13 pays; with RMA the eight CPEs of
/// a row stage distinct slices selected by Cid (§3.2).
CopyStmt makeGetA(const Ctx& ctx, const AffineExpr& koExpr,
                  std::optional<std::string> phaseVar,
                  std::int64_t phaseOffset) {
  CopyStmt s;
  s.name = phaseOffset == 0 ? "getA" : "getA_next";
  s.kind = CopyKind::kDmaGet;
  s.array = "A";
  s.batchIndex = batchIndex(ctx);
  const AffineExpr kStart =
      ctx.opts.useRma ? koExpr * ctx.kStep + d("Cid") * ctx.opts.tileK
                      : koExpr * ctx.kStep;
  if (ctx.opts.transposeA) {
    // A is stored K x M; stage the k-major tile into scratch, an on-CPE
    // transpose (in the mark chain) produces the i-major A_dma tile.
    s.buffer = SpmBufferRef{"T_A", std::nullopt, 0};
    s.rowStart = kStart;
    s.colStart = ctx.cRow();
    s.rowsParam = "K";
    s.colsParam = "M";
    s.tileRows = ctx.opts.tileK;
    s.tileCols = ctx.opts.tileM;
  } else {
    s.buffer = SpmBufferRef{"A_dma", std::move(phaseVar), phaseOffset};
    s.rowStart = ctx.cRow();
    s.colStart = kStart;
    s.rowsParam = "M";
    s.colsParam = "K";
    s.tileRows = ctx.opts.tileM;
    s.tileCols = ctx.opts.tileK;
  }
  s.clampToBounds = ctx.opts.edgeTiles;
  s.replySlot = "reply_A";
  return s;
}

CopyStmt makeGetB(const Ctx& ctx, const AffineExpr& koExpr,
                  std::optional<std::string> phaseVar,
                  std::int64_t phaseOffset) {
  CopyStmt s;
  s.name = phaseOffset == 0 ? "getB" : "getB_next";
  s.kind = CopyKind::kDmaGet;
  s.array = "B";
  s.batchIndex = batchIndex(ctx);
  const AffineExpr kStart =
      ctx.opts.useRma ? koExpr * ctx.kStep + d("Rid") * ctx.opts.tileK
                      : koExpr * ctx.kStep;
  if (ctx.opts.transposeB) {
    // B is stored N x K; stage j-major, transpose on CPE into B_dma.
    s.buffer = SpmBufferRef{"T_B", std::nullopt, 0};
    s.rowStart = ctx.cCol();
    s.colStart = kStart;
    s.rowsParam = "N";
    s.colsParam = "K";
    s.tileRows = ctx.opts.tileN;
    s.tileCols = ctx.opts.tileK;
  } else {
    s.buffer = SpmBufferRef{"B_dma", std::move(phaseVar), phaseOffset};
    s.rowStart = kStart;
    s.colStart = ctx.cCol();
    s.rowsParam = "K";
    s.colsParam = "N";
    s.tileRows = ctx.opts.tileK;
    s.tileCols = ctx.opts.tileN;
  }
  s.clampToBounds = ctx.opts.edgeTiles;
  s.replySlot = "reply_B";
  return s;
}

/// Row broadcast of the A tile for round `kiExpr`: the CPE whose Cid
/// matches the round owns the slice (it DMA-staged it) and shares it along
/// its mesh row (§5, Fig.8b).
CopyStmt makeRbcastA(const Ctx& ctx, const AffineExpr& kiExpr,
                     std::optional<std::string> dmaPhaseVar,
                     std::optional<std::string> rmaPhaseVar,
                     std::int64_t rmaPhaseOffset) {
  CopyStmt s;
  s.name = rmaPhaseOffset == 0 ? "rbcastA" : "rbcastA_next";
  s.kind = CopyKind::kRmaRowBcast;
  s.array = "A";
  s.buffer = SpmBufferRef{"A_rma", std::move(rmaPhaseVar), rmaPhaseOffset};
  s.rmaSource = SpmBufferRef{"A_dma", std::move(dmaPhaseVar), 0};
  s.rowStart = c(0);
  s.colStart = c(0);
  s.rowsParam = "M";
  s.colsParam = "K";
  s.tileRows = ctx.opts.tileM;
  s.tileCols = ctx.opts.tileK;
  s.senderGuard = sched::SenderGuard{"Cid", kiExpr};
  s.replySlot = "rma_reply_A";
  return s;
}

CopyStmt makeCbcastB(const Ctx& ctx, const AffineExpr& kiExpr,
                     std::optional<std::string> dmaPhaseVar,
                     std::optional<std::string> rmaPhaseVar,
                     std::int64_t rmaPhaseOffset) {
  CopyStmt s;
  s.name = rmaPhaseOffset == 0 ? "cbcastB" : "cbcastB_next";
  s.kind = CopyKind::kRmaColBcast;
  s.array = "B";
  s.buffer = SpmBufferRef{"B_rma", std::move(rmaPhaseVar), rmaPhaseOffset};
  s.rmaSource = SpmBufferRef{"B_dma", std::move(dmaPhaseVar), 0};
  s.rowStart = c(0);
  s.colStart = c(0);
  s.rowsParam = "K";
  s.colsParam = "N";
  s.tileRows = ctx.opts.tileK;
  s.tileCols = ctx.opts.tileN;
  s.senderGuard = sched::SenderGuard{"Rid", kiExpr};
  s.replySlot = "rma_reply_B";
  return s;
}

// ---------------------------------------------------------------------------
// Mark factories (§7.2, §7.3)
// ---------------------------------------------------------------------------

/// A chain of element-wise marks applied to the freshly DMA-ed input
/// tiles: optional on-CPE transposes (op(A)/op(B) variants), the fused
/// quantization prologue (if any), and the alpha fold.  Adopts `tail` at
/// the end of the chain (may be a leaf).
NodePtr makeATileMarks(const Ctx& ctx, std::optional<std::string> phaseVar,
                       std::int64_t phaseOffset, NodePtr tail) {
  NodePtr chain = std::move(tail);

  if (ctx.opts.transposeB) {
    auto transB = std::make_unique<sched::MarkNode>();
    transB->label = "elementwise:transposeB";
    ElementwiseMarkInfo info;
    info.op = ElementwiseMarkInfo::Op::kTranspose;
    info.target = SpmBufferRef{"B_dma", phaseVar, phaseOffset};
    info.source = SpmBufferRef{"T_B", std::nullopt, 0};
    info.rows = ctx.opts.tileN;  // source tile is j-major tileN x tileK
    info.cols = ctx.opts.tileK;
    transB->elementwise = info;
    transB->appendChild(std::move(chain));
    chain = std::move(transB);
  }

  auto alpha = std::make_unique<sched::MarkNode>();
  alpha->label = "elementwise:alphaA";
  alpha->elementwise =
      ElementwiseMarkInfo{ElementwiseMarkInfo::Op::kAlphaScaleA,
                          SpmBufferRef{"A_dma", phaseVar, phaseOffset},
                          ctx.opts.tileM, ctx.opts.tileK, std::nullopt, ""};
  alpha->appendChild(std::move(chain));
  chain = std::move(alpha);

  if (ctx.opts.fusion == FusionKind::kPrologueQuantize) {
    auto quant = std::make_unique<sched::MarkNode>();
    quant->label = "elementwise:quantizeA";
    quant->elementwise =
        ElementwiseMarkInfo{ElementwiseMarkInfo::Op::kQuantize,
                            SpmBufferRef{"A_dma", phaseVar, phaseOffset},
                            ctx.opts.tileM, ctx.opts.tileK, std::nullopt,
                            "S0"};
    quant->appendChild(std::move(chain));
    chain = std::move(quant);
  }

  if (ctx.opts.transposeA) {
    auto transA = std::make_unique<sched::MarkNode>();
    transA->label = "elementwise:transposeA";
    ElementwiseMarkInfo info;
    info.op = ElementwiseMarkInfo::Op::kTranspose;
    info.target = SpmBufferRef{"A_dma", phaseVar, phaseOffset};
    info.source = SpmBufferRef{"T_A", std::nullopt, 0};
    info.rows = ctx.opts.tileK;  // source tile is k-major tileK x tileM
    info.cols = ctx.opts.tileM;
    transA->elementwise = info;
    transA->appendChild(std::move(chain));
    chain = std::move(transA);
  }
  return chain;
}

NodePtr leaf() { return std::make_unique<sched::LeafNode>(); }

/// The GEMM statement S1's iteration domain over (b,) i, j, k.
poly::IntegerSet gemmDomain(const CodegenOptions& options) {
  std::vector<std::string> dims;
  if (options.batched) dims.push_back("b");
  dims.insert(dims.end(), {"i", "j", "k"});
  poly::IntegerSet domain("S1", std::move(dims));
  if (options.batched) domain.addRange("b", d("BATCH"));
  domain.addRange("i", d("M"));
  domain.addRange("j", d("N"));
  domain.addRange("k", d("K"));
  return domain;
}

// ---------------------------------------------------------------------------
// Structural construction of the memory-optimisation levels (§4–§6)
// ---------------------------------------------------------------------------

/// Wrap the compute subtree (mark + point band) for the RMA inner level.
/// `markSubtree` is consumed.  Returns the node to install as the ko-level
/// compute child.
NodePtr buildInnerRmaLevel(const Ctx& ctx, NodePtr markSubtree,
                           sched::BandNode* kiBand, NodePtr kiSubtreeOwned) {
  const std::optional<std::string> koPhase =
      ctx.opts.hideLatency ? std::optional<std::string>("ko") : std::nullopt;
  const std::optional<std::string> kiPhase =
      ctx.opts.hideLatency ? std::optional<std::string>("ki") : std::nullopt;

  if (!ctx.opts.hideLatency) {
    // Fig.9: keep the ki band; EXTENSION + SEQUENCE inside it.
    auto ext = std::make_unique<sched::ExtensionNode>();
    ext->copies.push_back(makeRbcastA(ctx, d("ki"), koPhase, kiPhase, 0));
    ext->copies.push_back(makeCbcastB(ctx, d("ki"), koPhase, kiPhase, 0));
    auto seq = std::make_unique<sched::SequenceNode>();
    seq->appendChild(sched::makeFilter(
        {sched::syncElement(), sched::copyElement("rbcastA"),
         sched::copyElement("cbcastB"), sched::waitElement("rma_reply_A"),
         sched::waitElement("rma_reply_B")},
        std::nullopt, leaf()));
    seq->appendChild(sched::makeFilter({sched::statementElement("S1")},
                                       std::nullopt, std::move(markSubtree)));
    ext->appendChild(std::move(seq));
    // Install under the existing ki band.
    kiBand->children().clear();
    kiBand->appendChild(std::move(ext));
    return kiSubtreeOwned;
  }

  // Fig.11 inner level: the ki band is replaced by a peeled sequence.
  auto ext = std::make_unique<sched::ExtensionNode>();
  ext->copies.push_back(makeRbcastA(ctx, d("ki"), koPhase, kiPhase, 0));
  ext->copies.push_back(makeCbcastB(ctx, d("ki"), koPhase, kiPhase, 0));
  ext->copies.push_back(
      makeRbcastA(ctx, d("ki") + c(1), koPhase, kiPhase, 1));
  ext->copies.push_back(
      makeCbcastB(ctx, d("ki") + c(1), koPhase, kiPhase, 1));

  const std::int64_t strip = ctx.opts.stripFactor;
  auto seq = std::make_unique<sched::SequenceNode>();

  // Round 0: sync, broadcast, wait (the non-hidden first iteration, Fig.10c).
  seq->appendChild(sched::makeFilter(
      {sched::syncElement(), sched::copyElement("rbcastA"),
       sched::copyElement("cbcastB"), sched::waitElement("rma_reply_A"),
       sched::waitElement("rma_reply_B")},
      RangeRestriction{"ki", Extent::constant(0), Extent::constant(1)},
      leaf()));

  // Steady state: issue round ki+1, compute round ki, wait round ki+1.
  auto steadyBody = std::make_unique<sched::SequenceNode>();
  steadyBody->appendChild(sched::makeFilter(
      {sched::syncElement(), sched::copyElement("rbcastA_next"),
       sched::copyElement("cbcastB_next")},
      std::nullopt, leaf()));
  steadyBody->appendChild(sched::makeFilter(
      {sched::statementElement("S1")}, std::nullopt, markSubtree->clone()));
  steadyBody->appendChild(sched::makeFilter(
      {sched::waitElement("rma_reply_A"), sched::waitElement("rma_reply_B")},
      std::nullopt, leaf()));
  seq->appendChild(sched::makeFilter(
      {},
      RangeRestriction{"ki", Extent::constant(0), Extent::constant(strip - 1)},
      std::move(steadyBody)));

  // Last round: compute only.
  seq->appendChild(sched::makeFilter(
      {sched::statementElement("S1")},
      RangeRestriction{"ki", Extent::constant(strip - 1),
                       Extent::constant(strip)},
      std::move(markSubtree)));

  ext->appendChild(std::move(seq));
  (void)kiBand;
  (void)kiSubtreeOwned;
  return ext;
}

}  // namespace

PaddedShape padShape(std::int64_t m, std::int64_t n, std::int64_t k,
                     const CodegenOptions& options,
                     const sunway::ArchConfig& arch) {
  if (m <= 0 || n <= 0 || k <= 0)
    throwInput(strCat("matrix sizes must be positive, got ", m, "x", n, "x",
                      k));
  PaddedShape padded;
  padded.m = roundUp(m, options.tileM * arch.meshRows);
  padded.n = roundUp(n, options.tileN * arch.meshCols);
  const std::int64_t kUnit =
      options.useRma ? options.tileK * options.stripFactor : options.tileK;
  padded.k = roundUp(k, kUnit);
  return padded;
}

namespace {

/// The §2.2 proof of one pattern: the GEMM statement's domain and
/// accesses, then each dependence question once.
PatternAnalysis provePattern(const CodegenOptions& options) {
  // --- Statement domain and accesses (§2.2) -------------------------------
  poly::StatementInfo stmt{"S1", gemmDomain(options), {}};
  const std::vector<std::string>& dims = stmt.domain.dims();
  auto sub = [&](std::initializer_list<AffineExpr> subs, bool write,
                 const char* array) {
    std::vector<AffineExpr> outputs;
    if (options.batched) outputs.push_back(d("b"));
    outputs.insert(outputs.end(), subs);
    stmt.accesses.push_back(
        poly::AccessRelation{array, poly::AffineMap(dims, outputs), write});
  };
  sub({d("i"), d("j")}, true, "C");
  sub({d("i"), d("j")}, false, "C");
  if (options.transposeA)
    sub({d("k"), d("i")}, false, "A");
  else
    sub({d("i"), d("k")}, false, "A");
  if (options.transposeB)
    sub({d("j"), d("k")}, false, "B");
  else
    sub({d("k"), d("j")}, false, "B");

  // --- Dependence analysis: each question once ----------------------------
  const poly::DependenceAnalysis dependences({stmt});
  PatternAnalysis analysis;
  analysis.batched = options.batched;
  analysis.transposeA = options.transposeA;
  analysis.transposeB = options.transposeB;
  analysis.fusion = options.fusion;
  for (std::size_t l = 0; l < dims.size(); ++l)
    analysis.coincident.push_back(dependences.isLoopParallel("S1", l));
  analysis.tilable = dependences.isBandPermutable("S1", 0, dims.size());
  const std::size_t iLevel = options.batched ? 1 : 0;
  if (!analysis.coincident[iLevel] || !analysis.coincident[iLevel + 1] ||
      !analysis.tilable)
    throwInput(
        "the input loop nest does not expose the 2D parallelism and "
        "tilability GEMM decomposition requires");
  return analysis;
}

/// One pattern's entry in the process-wide memo.  It is filled at most
/// once, under `mutex`, and read without the lock once `ready` is set; it
/// is never evicted, and a proof that throws leaves it empty.
struct PatternEntry {
  std::mutex mutex;
  std::atomic<bool> ready{false};
  PatternAnalysis analysis;
};

/// The entry of the pattern of (batched, transposeA, transposeB, fusion):
/// 2 x 2 x 2 x 3 = 24 of them.
PatternEntry& patternEntry(bool batched, bool transposeA, bool transposeB,
                           FusionKind fusion) {
  static std::array<PatternEntry, 24> entries;
  const auto fusionIndex = static_cast<std::size_t>(fusion);
  SW_CHECK(fusionIndex < 3, "unknown fusion kind");
  return entries[fusionIndex * 8 + (transposeB ? 4 : 0) +
                 (transposeA ? 2 : 0) + (batched ? 1 : 0)];
}

/// Fill `entry` with make() unless it is filled already; true when this
/// call filled it.  A caller that finds another thread filling it waits.
template <typename Make>
bool fillOnce(PatternEntry& entry, Make&& make) {
  if (entry.ready.load(std::memory_order_acquire)) return false;
  const std::lock_guard<std::mutex> lock(entry.mutex);
  if (entry.ready.load(std::memory_order_relaxed)) return false;
  entry.analysis = make();
  entry.ready.store(true, std::memory_order_release);
  return true;
}

std::vector<trace::TraceArg> patternArgs(bool batched, FusionKind fusion) {
  return {trace::arg("batched", batched ? "true" : "false"),
          trace::arg("fusion", static_cast<std::int64_t>(fusion))};
}

}  // namespace

const PatternAnalysis& analyzeGemmPattern(const CodegenOptions& options) {
  trace::Span span("pipeline.dependence",
                   patternArgs(options.batched, options.fusion));
  PatternEntry& entry = patternEntry(options.batched, options.transposeA,
                                     options.transposeB, options.fusion);
  const bool proved =
      fillOnce(entry, [&options] { return provePattern(options); });
  span.addArg(trace::arg("analysis", proved ? "proved" : "reused"));
  return entry.analysis;
}

const PatternAnalysis& adoptFrontendVerdict(const PatternAnalysis& verdict) {
  trace::Span span("pipeline.dependence",
                   patternArgs(verdict.batched, verdict.fusion));
  span.addArg(trace::arg("analysis", "frontend"));
  SW_CHECK(verdict.coincident.size() == (verdict.batched ? 4u : 3u),
           "the frontend's verdict must name every loop of the GEMM nest");
  PatternEntry& entry = patternEntry(verdict.batched, verdict.transposeA,
                                     verdict.transposeB, verdict.fusion);
  if (!fillOnce(entry, [&verdict] { return verdict; }))
    SW_CHECK(entry.analysis.coincident == verdict.coincident &&
                 entry.analysis.tilable == verdict.tilable,
             "the frontend's verdict differs from the pattern's proof");
  return entry.analysis;
}

namespace {

/// The pipeline body behind runGemmPipeline and dumpScheduleTrees; renders
/// the stage trees into `dumps` when it is not null.
PipelineResult lowerSchedule(const CodegenOptions& options,
                             const sunway::ArchConfig& arch,
                             const PatternAnalysis& analysis,
                             ScheduleTreeDumps* dumps) {
  SW_CHECK(analysis.covers(options),
           "the pattern analysis was proven for another GEMM pattern");
  if (options.hideLatency && !options.useRma)
    throwInput(
        "memory latency hiding requires the RMA decomposition "
        "(the paper's two-level pipeline, §6)");
  if (options.stripFactor != arch.meshRows ||
      arch.meshRows != arch.meshCols)
    SW_CHECK(options.stripFactor == arch.meshRows,
             "strip factor must equal the mesh width (§3.2)");

  Ctx ctx;
  ctx.opts = options;
  ctx.arch = &arch;
  ctx.meshM = options.tileM * arch.meshRows;
  ctx.meshN = options.tileN * arch.meshCols;
  ctx.kStep = options.useRma ? options.tileK * options.stripFactor
                             : options.tileK;

  // Per-stage trace spans: the optional is emplaced at each stage boundary
  // so the previous span closes exactly where the next begins.
  std::optional<trace::Span> stage;
  stage.emplace("pipeline.tile",
                std::vector<trace::TraceArg>{
                    trace::arg("tileM", options.tileM),
                    trace::arg("tileN", options.tileN),
                    trace::arg("tileK", options.tileK),
                    trace::arg("stripFactor", options.stripFactor)});

  std::vector<poly::IntegerSet> domains{gemmDomain(options)};
  if (options.fusion == FusionKind::kPrologueQuantize) {
    poly::IntegerSet prologue("S0", options.batched
                                        ? std::vector<std::string>{"b", "i",
                                                                   "k"}
                                        : std::vector<std::string>{"i", "k"});
    if (options.batched) prologue.addRange("b", d("BATCH"));
    prologue.addRange("i", d("M"));
    prologue.addRange("k", d("K"));
    domains.push_back(prologue);
  } else if (options.fusion == FusionKind::kEpilogueRelu) {
    poly::IntegerSet epilogue("S2", options.batched
                                        ? std::vector<std::string>{"b", "i",
                                                                   "j"}
                                        : std::vector<std::string>{"i", "j"});
    if (options.batched) epilogue.addRange("b", d("BATCH"));
    epilogue.addRange("i", d("M"));
    epilogue.addRange("j", d("N"));
    domains.push_back(epilogue);
  }

  // --- Initial tree (Fig.2b) + batch isolation (Fig.3) --------------------
  sched::ScheduleTree tree = sched::buildInitialTree(
      domains, analysis.coincident, analysis.tilable);
  if (dumps != nullptr) dumps->initialTree = tree.toString();

  auto* gemmBand = &sched::nodeCast<sched::BandNode>(tree.root().onlyChild());
  if (options.batched)
    gemmBand = &sched::splitBand(tree, *gemmBand, 1);  // isolate b (Fig.3)

  // --- Compute decomposition (§3.1): tile with the micro-kernel shape -----
  sched::tileBand(tree, *gemmBand,
                  {options.tileM, options.tileN, options.tileK},
                  {"it", "jt", "kt"}, {"ii", "ji", "kk"});
  sched::BandNode& ktBand = sched::splitBand(tree, *gemmBand, 2);

  // Mesh decomposition + hardware binding (Fig.4b): it = 8*mt + Rid,
  // jt = 8*nt + Cid.
  sched::BandNode& ridBand =
      sched::stripMineMember(tree, *gemmBand, 0, arch.meshRows, "mt", "rid");
  sched::BandNode& innerAfterMt =
      sched::nodeCast<sched::BandNode>(ridBand.onlyChild());
  sched::BandNode& ntBand =
      sched::stripMineMember(tree, innerAfterMt, 1, arch.meshCols, "nt",
                             "cid");
  sched::BandNode& ridCidBand =
      sched::nodeCast<sched::BandNode>(ntBand.onlyChild());
  sched::bindMember(ridCidBand, 0, "Rid");
  sched::bindMember(ridCidBand, 1, "Cid");

  // --- Strip-mine the reduced dimension (§3.2, Fig.6) ---------------------
  sched::BandNode* koBand = &ktBand;
  sched::BandNode* kiBand = nullptr;
  if (options.useRma) {
    sched::stripMineMember(tree, ktBand, 0, options.stripFactor, "ko", "ki");
    koBand = &ktBand;  // now heads "ko"
    kiBand = &sched::nodeCast<sched::BandNode>(ktBand.onlyChild());
  }
  if (dumps != nullptr) dumps->tiledTree = tree.toString();

  stage.emplace("pipeline.compute_mark",
                std::vector<trace::TraceArg>{
                    trace::arg("useAsm", options.useAsm ? "true" : "false")});

  // --- Compute mark (§7.2): replace the point band's execution ------------
  sched::BandNode& pointBand = sched::findBandByVar(tree, "ii");
  const bool rmaBuffers = options.useRma;
  // The vendor ships the assembly routine for exactly one shape, 64x64x32
  // (§7.2: other shapes "were also designed before the one used in this
  // work made publicly accessible").  Any other tile choice falls back to
  // compiler-scheduled loops — one half of why the analytical tile-size
  // model simply adopts the micro-kernel shape (§3.1).
  const bool asmShapeAvailable =
      options.tileM == 64 && options.tileN == 64 && options.tileK == 32;
  ComputeMarkInfo computeInfo;
  computeInfo.kind = options.useAsm && asmShapeAvailable
                         ? ComputeMarkInfo::Kind::kAsm
                         : ComputeMarkInfo::Kind::kNaive;
  computeInfo.m = options.tileM;
  computeInfo.n = options.tileN;
  computeInfo.k = options.tileK;
  // The micro-kernel is generated per (MR, NR) register block nowadays;
  // an off-family request is a usage error, not a silent fallback.
  if (!kernel::isFeasibleMicroKernelVariant(options.microMr, options.microNr))
    throw InputError(strCat(
        "micro-kernel register block ", options.microMr, "x", options.microNr,
        " is outside the generated family; see kernel::microKernelFamily()"));
  computeInfo.mr = options.microMr;
  computeInfo.nr = options.microNr;
  computeInfo.c = SpmBufferRef{"C", std::nullopt, 0};
  const std::optional<std::string> kiPhase =
      options.hideLatency ? std::optional<std::string>("ki") : std::nullopt;
  computeInfo.a = rmaBuffers ? SpmBufferRef{"A_rma", kiPhase, 0}
                             : SpmBufferRef{"A_dma", std::nullopt, 0};
  computeInfo.b = rmaBuffers ? SpmBufferRef{"B_rma", kiPhase, 0}
                             : SpmBufferRef{"B_dma", std::nullopt, 0};
  if (options.edgeTiles) {
    // Edge tiles: clamp the kernel shape to the valid extent of this
    // CPE's tile.  The k origin names the slice the operand buffers hold
    // at this compute point: with RMA, round ki carries the slice staged
    // by the CPE whose Cid/Rid equals ki (kStart = ko*kStep + ki*tileK);
    // without RMA every CPE fetched kt*tileK itself.
    computeInfo.clampM = sched::ComputeClamp{ctx.cRow(), "M"};
    computeInfo.clampN = sched::ComputeClamp{ctx.cCol(), "N"};
    const AffineExpr kOrigin =
        options.useRma ? d("ko") * ctx.kStep + d("ki") * options.tileK
                       : d("kt") * options.tileK;
    computeInfo.clampK = sched::ComputeClamp{kOrigin, "K"};
  }

  auto mark = std::make_unique<sched::MarkNode>();
  mark->label = computeInfo.kind == ComputeMarkInfo::Kind::kAsm
                    ? "microkernel"
                    : "naive_compute";
  mark->compute = computeInfo;
  // The mark adopts the point band (it owns the subtree it bypasses).
  sched::BandNode& pointParent = rmaBuffers
                                     ? *kiBand
                                     : sched::findBandByVar(tree, "kt");
  // pointParent's only child is the point band; wrap it.
  {
    NodePtr pointSubtree = std::move(pointParent.children()[0]);
    pointParent.children().clear();
    mark->appendChild(std::move(pointSubtree));
  }
  NodePtr markSubtree = std::move(mark);
  (void)pointBand;

  stage.emplace("pipeline.dma_insertion",
                std::vector<trace::TraceArg>{
                    trace::arg("useRma", options.useRma ? "true" : "false"),
                    trace::arg("kStep", ctx.kStep)});

  // --- Assemble the k-level memory structure (§4–§6) ----------------------
  NodePtr koLevel;
  if (!options.useRma) {
    // v1/v2: DMA every (tileK)-deep slice inside the kt loop; redundant
    // across the mesh row/column.
    auto ext = std::make_unique<sched::ExtensionNode>();
    ext->copies.push_back(makeGetA(ctx, d("kt"), std::nullopt, 0));
    ext->copies.push_back(makeGetB(ctx, d("kt"), std::nullopt, 0));
    auto seq = std::make_unique<sched::SequenceNode>();
    seq->appendChild(sched::makeFilter(
        {sched::copyElement("getA"), sched::copyElement("getB"),
         sched::waitElement("reply_A"), sched::waitElement("reply_B")},
        std::nullopt, makeATileMarks(ctx, std::nullopt, 0, leaf())));
    seq->appendChild(sched::makeFilter({sched::statementElement("S1")},
                                       std::nullopt, std::move(markSubtree)));
    ext->appendChild(std::move(seq));
    koBand->children().clear();
    koBand->appendChild(std::move(ext));
    // The kt band stays in place under the C-level filter.
    koLevel = nullptr;
  } else {
    // Detach the ki subtree from the ko band so we can restructure.
    NodePtr kiSubtree = std::move(koBand->children()[0]);
    koBand->children().clear();

    NodePtr innerLevel;
    {
      trace::Span rmaSpan(
          "pipeline.rma_broadcast",
          {trace::arg("stripFactor", options.stripFactor),
           trace::arg("innerPeeled",
                      options.hideLatency ? "true" : "false")});
      innerLevel = buildInnerRmaLevel(ctx, std::move(markSubtree), kiBand,
                                      std::move(kiSubtree));
    }

    const std::optional<std::string> koPhase =
        options.hideLatency ? std::optional<std::string>("ko") : std::nullopt;

    if (!options.hideLatency) {
      // Fig.9: EXTENSION + SEQUENCE inside the ko band.  `innerLevel` is
      // the (re-populated) ki band subtree.
      auto ext = std::make_unique<sched::ExtensionNode>();
      ext->copies.push_back(makeGetA(ctx, d("ko"), koPhase, 0));
      ext->copies.push_back(makeGetB(ctx, d("ko"), koPhase, 0));
      auto seq = std::make_unique<sched::SequenceNode>();
      seq->appendChild(sched::makeFilter(
          {sched::copyElement("getA"), sched::copyElement("getB"),
           sched::waitElement("reply_A"), sched::waitElement("reply_B")},
          std::nullopt, makeATileMarks(ctx, koPhase, 0, leaf())));
      seq->appendChild(sched::makeFilter({sched::statementElement("S1")},
                                         std::nullopt,
                                         std::move(innerLevel)));
      ext->appendChild(std::move(seq));
      koBand->appendChild(std::move(ext));
      koLevel = nullptr;  // ko band remains in the tree
    } else {
      // Fig.11 outer level: the ko band is replaced by a peeled sequence.
      trace::Span hideSpan("pipeline.latency_hiding",
                           {trace::arg("dmaPhases", std::int64_t{2}),
                            trace::arg("kStep", ctx.kStep)});
      auto ext = std::make_unique<sched::ExtensionNode>();
      ext->copies.push_back(makeGetA(ctx, d("ko"), koPhase, 0));
      ext->copies.push_back(makeGetB(ctx, d("ko"), koPhase, 0));
      ext->copies.push_back(makeGetA(ctx, d("ko") + c(1), koPhase, 1));
      ext->copies.push_back(makeGetB(ctx, d("ko") + c(1), koPhase, 1));

      const Extent koExtent = Extent::paramDiv("K", ctx.kStep);
      auto seq = std::make_unique<sched::SequenceNode>();

      // Prologue: stage iteration 0 and wait for it.
      seq->appendChild(sched::makeFilter(
          {sched::copyElement("getA"), sched::copyElement("getB"),
           sched::waitElement("reply_A"), sched::waitElement("reply_B")},
          RangeRestriction{"ko", Extent::constant(0), Extent::constant(1)},
          makeATileMarks(ctx, koPhase, 0, leaf())));

      // Steady state: prefetch ko+1, compute ko, wait ko+1.
      auto steadyBody = std::make_unique<sched::SequenceNode>();
      steadyBody->appendChild(sched::makeFilter(
          {sched::copyElement("getA_next"), sched::copyElement("getB_next")},
          std::nullopt, leaf()));
      steadyBody->appendChild(sched::makeFilter(
          {sched::statementElement("S1")}, std::nullopt, innerLevel->clone()));
      steadyBody->appendChild(sched::makeFilter(
          {sched::waitElement("reply_A"), sched::waitElement("reply_B")},
          std::nullopt, makeATileMarks(ctx, koPhase, 1, leaf())));
      seq->appendChild(sched::makeFilter(
          {}, RangeRestriction{"ko", Extent::constant(0), koExtent.plus(-1)},
          std::move(steadyBody)));

      // Epilogue: compute the last iteration.
      seq->appendChild(sched::makeFilter(
          {sched::statementElement("S1")},
          RangeRestriction{"ko", koExtent.plus(-1), koExtent},
          std::move(innerLevel)));

      ext->appendChild(std::move(seq));
      koLevel = std::move(ext);
    }
  }

  // --- C-level structure (getC / beta / compute / epilogue / putC) --------
  {
    NodePtr computeChild;
    if (koLevel != nullptr) {
      // The peeled sequence replaces the (now empty) ko band entirely.
      computeChild = std::move(koLevel);
      ridCidBand.children().clear();
    } else {
      // The k-band subtree stays rooted where it is: detach it from the
      // ridCid band so we can splice the C-level sequence in between.
      computeChild = std::move(ridCidBand.children()[0]);
      ridCidBand.children().clear();
    }

    auto ext = std::make_unique<sched::ExtensionNode>();
    ext->copies.push_back(makeGetC(ctx));
    ext->copies.push_back(makePutC(ctx));

    auto betaMark = std::make_unique<sched::MarkNode>();
    betaMark->label = "elementwise:betaC";
    betaMark->elementwise =
        ElementwiseMarkInfo{ElementwiseMarkInfo::Op::kBetaScaleC,
                            SpmBufferRef{"C", std::nullopt, 0},
                            options.tileM, options.tileN, std::nullopt, ""};
    betaMark->appendChild(leaf());

    auto seq = std::make_unique<sched::SequenceNode>();
    seq->appendChild(sched::makeFilter(
        {sched::copyElement("getC"), sched::waitElement("reply_C_get")},
        std::nullopt, std::move(betaMark)));
    seq->appendChild(sched::makeFilter({sched::statementElement("S1")},
                                       std::nullopt,
                                       std::move(computeChild)));
    if (options.fusion == FusionKind::kEpilogueRelu) {
      auto relu = std::make_unique<sched::MarkNode>();
      relu->label = "elementwise:reluC";
      relu->elementwise =
          ElementwiseMarkInfo{ElementwiseMarkInfo::Op::kRelu,
                              SpmBufferRef{"C", std::nullopt, 0},
                              options.tileM, options.tileN, std::nullopt,
                              "S2"};
      relu->appendChild(leaf());
      seq->appendChild(sched::makeFilter({sched::statementElement("S2")},
                                         std::nullopt, std::move(relu)));
    }
    seq->appendChild(sched::makeFilter(
        {sched::copyElement("putC"), sched::waitElement("reply_C_put")},
        std::nullopt, leaf()));
    ext->appendChild(std::move(seq));
    ridCidBand.appendChild(std::move(ext));
  }

  tree.validate();
  if (dumps != nullptr) dumps->finalTree = tree.toString();

  stage.emplace("pipeline.spm_layout");

  // --- Lower to the executable program (§7.1) -----------------------------
  codegen::KernelProgram program;
  program.name = strCat("swgemm", options.batched ? "_batched" : "",
                        options.fusion == FusionKind::kPrologueQuantize
                            ? "_fprologue"
                            : options.fusion == FusionKind::kEpilogueRelu
                                  ? "_fepilogue"
                                  : "");
  program.params = {"M", "N", "K"};
  if (options.batched) program.params.push_back("BATCH");
  const std::string batchParam = options.batched ? "BATCH" : "";
  program.arrays = {
      options.transposeA ? codegen::ArrayInfo{"A", batchParam, "K", "M"}
                         : codegen::ArrayInfo{"A", batchParam, "M", "K"},
      options.transposeB ? codegen::ArrayInfo{"B", batchParam, "N", "K"}
                         : codegen::ArrayInfo{"B", batchParam, "K", "N"},
      codegen::ArrayInfo{"C", batchParam, "M", "N"}};

  const int dmaPhases = options.hideLatency ? 2 : 1;
  program.buffers.push_back(
      codegen::SpmBufferDecl{"C", options.tileM, options.tileN, 1, 0});
  program.buffers.push_back(codegen::SpmBufferDecl{
      "A_dma", options.tileM, options.tileK, dmaPhases, 0});
  program.buffers.push_back(codegen::SpmBufferDecl{
      "B_dma", options.tileK, options.tileN, dmaPhases, 0});
  if (options.useRma) {
    program.buffers.push_back(codegen::SpmBufferDecl{
        "A_rma", options.tileM, options.tileK, dmaPhases, 0});
    program.buffers.push_back(codegen::SpmBufferDecl{
        "B_rma", options.tileK, options.tileN, dmaPhases, 0});
  }
  if (options.transposeA)
    program.buffers.push_back(codegen::SpmBufferDecl{
        "T_A", options.tileK, options.tileM, 1, 0});
  if (options.transposeB)
    program.buffers.push_back(codegen::SpmBufferDecl{
        "T_B", options.tileN, options.tileK, 1, 0});
  codegen::planSpmLayout(program, arch.spmBytes);
  stage->addArg(trace::arg("buffers",
                           static_cast<std::int64_t>(program.buffers.size())));
  stage->addArg(trace::arg("spmBytes", program.spmBytesUsed()));

  stage.emplace("pipeline.codegen");
  program.body = codegen::buildProgramBody(tree);
  PipelineResult result;
  result.program = std::move(program);
  const auto staticOps =
      static_cast<std::int64_t>(codegen::countOps(result.program.body));
  stage->addArg(trace::arg("staticOps", staticOps));
  stage.reset();

  SW_INFO("pipeline", "event=pipeline_done static_ops=", staticOps,
          " spm_bytes=", result.program.spmBytesUsed(),
          " buffers=", result.program.buffers.size());
  return result;
}

}  // namespace

PipelineResult runGemmPipeline(const CodegenOptions& options,
                               const sunway::ArchConfig& arch,
                               const PatternAnalysis& analysis) {
  return lowerSchedule(options, arch, analysis, nullptr);
}

PipelineResult runGemmPipeline(const CodegenOptions& options,
                               const sunway::ArchConfig& arch) {
  return lowerSchedule(options, arch, analyzeGemmPattern(options), nullptr);
}

ScheduleTreeDumps dumpScheduleTrees(const CodegenOptions& options,
                                    const sunway::ArchConfig& arch) {
  ScheduleTreeDumps dumps;
  (void)lowerSchedule(options, arch, analyzeGemmPattern(options), &dumps);
  return dumps;
}

}  // namespace sw::core
