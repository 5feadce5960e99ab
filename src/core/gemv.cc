#include "core/gemv.h"

#include <vector>

#include "codegen/athread_printer.h"
#include "support/error.h"
#include "support/math_util.h"
#include "sunway/mesh.h"

namespace sw::core {

namespace {

using codegen::AssignOp;
using codegen::ComputeOp;
using codegen::DmaOp;
using codegen::ElementwiseOp;
using codegen::KernelProgram;
using codegen::LoopOp;
using codegen::Op;
using codegen::OpList;
using codegen::WaitOp;
using poly::AffineExpr;
using sched::CopyKind;
using sched::CopyStmt;
using sched::ElementwiseMarkInfo;
using sched::Extent;
using sched::SpmBufferRef;

AffineExpr d(const std::string& name) { return AffineExpr::dim(name); }

/// Rows handled by the whole mesh per mesh-tile iteration.
std::int64_t meshRowsPerTile(const sunway::ArchConfig& arch,
                             const GemvOptions& options) {
  return options.rowsPerCpe * arch.meshSize();
}

/// This CPE's first row within a mesh tile: (Rid*meshCols + Cid) * rows.
AffineExpr cpeRowBase(const sunway::ArchConfig& arch,
                      const GemvOptions& options) {
  return d("mt") * meshRowsPerTile(arch, options) +
         d("Rid") * (arch.meshCols * options.rowsPerCpe) +
         d("Cid") * options.rowsPerCpe;
}

CopyStmt getY(const sunway::ArchConfig& arch, const GemvOptions& options,
              bool put) {
  // The one-letter names move in from std::string temporaries: assigning
  // the literals trips a spurious -Wrestrict in GCC 12's inlined copy.
  CopyStmt s;
  s.name = put ? "putY" : "getY";
  s.kind = put ? CopyKind::kDmaPut : CopyKind::kDmaGet;
  s.array = std::string("Y");
  s.buffer = SpmBufferRef{"Y", std::nullopt, 0};
  s.rowStart = AffineExpr::constant(0);
  s.colStart = cpeRowBase(arch, options);
  s.rowsParam = "ONE";
  s.colsParam = std::string("M");
  s.tileRows = 1;
  s.tileCols = options.rowsPerCpe;
  s.replySlot = put ? "reply_Y_put" : "reply_Y_get";
  return s;
}

CopyStmt getA(const sunway::ArchConfig& arch, const GemvOptions& options,
              const AffineExpr& koExpr, std::int64_t phaseOffset) {
  CopyStmt s;
  s.name = phaseOffset == 0 ? "getA" : "getA_next";
  s.kind = CopyKind::kDmaGet;
  s.array = "A";
  s.buffer = SpmBufferRef{"A_dma", "ko", phaseOffset};
  s.rowStart = cpeRowBase(arch, options);
  s.colStart = koExpr * options.kChunk;
  s.rowsParam = "M";
  s.colsParam = "K";
  s.tileRows = options.rowsPerCpe;
  s.tileCols = options.kChunk;
  s.replySlot = "reply_A";
  return s;
}

CopyStmt getX(const GemvOptions& options, const AffineExpr& koExpr,
              std::int64_t phaseOffset) {
  CopyStmt s;
  s.name = phaseOffset == 0 ? "getX" : "getX_next";
  s.kind = CopyKind::kDmaGet;
  s.array = "X";
  s.buffer = SpmBufferRef{"X_dma", "ko", phaseOffset};
  s.rowStart = AffineExpr::constant(0);
  s.colStart = koExpr * options.kChunk;
  s.rowsParam = "ONE";
  s.colsParam = "K";
  s.tileRows = 1;
  s.tileCols = options.kChunk;
  s.replySlot = "reply_X";
  return s;
}

Op elementwise(ElementwiseMarkInfo::Op op, SpmBufferRef target,
               std::int64_t rows, std::int64_t cols) {
  ElementwiseMarkInfo info;
  info.op = op;
  info.target = std::move(target);
  info.rows = rows;
  info.cols = cols;
  return Op{ElementwiseOp{info}};
}

/// The per-chunk inner product: Y[64] += A_tile[64 x kc] * X_chunk[kc].
Op computeChunk(const GemvOptions& options, std::int64_t phaseOffset) {
  sched::ComputeMarkInfo info;
  info.kind = sched::ComputeMarkInfo::Kind::kNaive;  // no vendor GEMV asm
  info.m = options.rowsPerCpe;
  info.n = 1;
  info.k = options.kChunk;
  info.c = SpmBufferRef{"Y", std::nullopt, 0};
  info.a = SpmBufferRef{"A_dma", "ko", phaseOffset};
  // The x chunk is a contiguous kc-vector: as the kc x 1 right operand.
  info.b = SpmBufferRef{"X_dma", "ko", phaseOffset};
  return Op{ComputeOp{info}};
}

/// Issue + scale ops for iteration `expr` (phaseOffset selects the
/// prefetch variant).
void pushIssue(OpList& ops, const sunway::ArchConfig& arch,
               const GemvOptions& options, const AffineExpr& koExpr,
               std::int64_t phaseOffset) {
  ops.push_back(Op{DmaOp{getA(arch, options, koExpr, phaseOffset)}});
  ops.push_back(Op{DmaOp{getX(options, koExpr, phaseOffset)}});
}

void pushWaitAndScale(OpList& ops, const GemvOptions& options,
                      std::int64_t phaseOffset) {
  ops.push_back(Op{WaitOp{"reply_A", false, true}});
  ops.push_back(Op{WaitOp{"reply_X", false, true}});
  // Fold alpha into the x chunk (mirrors the GEMM pipeline's A fold).
  ops.push_back(elementwise(ElementwiseMarkInfo::Op::kAlphaScaleA,
                            SpmBufferRef{"X_dma", "ko", phaseOffset}, 1,
                            options.kChunk));
}

}  // namespace

CompiledGemv compileGemv(const sunway::ArchConfig& arch,
                         const GemvOptions& options) {
  SW_CHECK(options.kChunk > 0 && options.rowsPerCpe > 0,
           "GEMV tile sizes must be positive");
  KernelProgram program;
  program.name = "swgemv";
  program.params = {"M", "K"};
  program.arrays = {codegen::ArrayInfo{"A", "", "M", "K"},
                    codegen::ArrayInfo{"X", "", "ONE", "K"},
                    codegen::ArrayInfo{"Y", "", "ONE", "M"}};
  const int phases = options.hideLatency ? 2 : 1;
  program.buffers = {
      codegen::SpmBufferDecl{"Y", 1, options.rowsPerCpe, 1, 0},
      codegen::SpmBufferDecl{"A_dma", options.rowsPerCpe, options.kChunk,
                             phases, 0},
      codegen::SpmBufferDecl{"X_dma", 1, options.kChunk, phases, 0},
  };
  codegen::planSpmLayout(program, arch.spmBytes);

  const Extent koExtent = Extent::paramDiv("K", options.kChunk);

  OpList meshTileBody;
  meshTileBody.push_back(Op{DmaOp{getY(arch, options, /*put=*/false)}});
  meshTileBody.push_back(Op{WaitOp{"reply_Y_get", false, true}});
  meshTileBody.push_back(elementwise(ElementwiseMarkInfo::Op::kBetaScaleC,
                                     SpmBufferRef{"Y", std::nullopt, 0}, 1,
                                     options.rowsPerCpe));

  if (options.hideLatency) {
    // Peeled pipeline, same structure as the GEMM outer-k level (§6).
    OpList prologue;
    pushIssue(prologue, arch, options, d("ko"), 0);
    pushWaitAndScale(prologue, options, 0);
    meshTileBody.push_back(
        Op{AssignOp{"ko", Extent::constant(0), std::move(prologue)}});

    OpList steady;
    pushIssue(steady, arch, options, d("ko") + AffineExpr::constant(1), 1);
    steady.push_back(computeChunk(options, 0));
    pushWaitAndScale(steady, options, 1);
    meshTileBody.push_back(Op{LoopOp{"ko", Extent::constant(0),
                                     koExtent.plus(-1), std::move(steady)}});

    OpList last;
    last.push_back(computeChunk(options, 0));
    meshTileBody.push_back(
        Op{AssignOp{"ko", koExtent.plus(-1), std::move(last)}});
  } else {
    OpList body;
    pushIssue(body, arch, options, d("ko"), 0);
    pushWaitAndScale(body, options, 0);
    body.push_back(computeChunk(options, 0));
    meshTileBody.push_back(
        Op{LoopOp{"ko", Extent::constant(0), koExtent, std::move(body)}});
  }

  meshTileBody.push_back(Op{DmaOp{getY(arch, options, /*put=*/true)}});
  meshTileBody.push_back(Op{WaitOp{"reply_Y_put", false, true}});

  program.body.push_back(
      Op{LoopOp{"mt", Extent::constant(0),
                Extent::paramDiv("M", meshRowsPerTile(arch, options)),
                std::move(meshTileBody)}});

  CompiledGemv kernel;
  kernel.options = options;
  kernel.program = std::move(program);
  codegen::GeneratedSources sources =
      codegen::printAthreadSources(kernel.program);
  kernel.cpeSource = std::move(sources.cpe);
  kernel.mpeSource = std::move(sources.mpe);
  return kernel;
}

namespace {

std::map<std::string, std::int64_t> gemvParams(const CompiledGemv& kernel,
                                               const sunway::ArchConfig& arch,
                                               const GemvProblem& problem,
                                               std::int64_t* paddedM,
                                               std::int64_t* paddedK) {
  SW_CHECK(problem.m > 0 && problem.k > 0, "GEMV sizes must be positive");
  *paddedM = roundUp(problem.m,
                     meshRowsPerTile(arch, kernel.options));
  *paddedK = roundUp(problem.k, kernel.options.kChunk);
  return {{"M", *paddedM}, {"K", *paddedK}};
}

}  // namespace

rt::RunOutcome runGemvFunctional(const CompiledGemv& kernel,
                                 const sunway::ArchConfig& arch,
                                 const GemvProblem& problem,
                                 std::span<const double> a,
                                 std::span<const double> x,
                                 std::span<double> y) {
  std::int64_t paddedM = 0, paddedK = 0;
  auto params = gemvParams(kernel, arch, problem, &paddedM, &paddedK);
  SW_CHECK(static_cast<std::int64_t>(a.size()) == problem.m * problem.k &&
               static_cast<std::int64_t>(x.size()) == problem.k &&
               static_cast<std::int64_t>(y.size()) == problem.m,
           "operand span sizes do not match the problem");

  sunway::MeshSimulator mesh(arch, /*functional=*/true);
  sunway::HostArray arrA =
      sunway::HostArray::allocate("A", 1, paddedM, paddedK);
  sunway::HostArray arrX = sunway::HostArray::allocate("X", 1, 1, paddedK);
  sunway::HostArray arrY = sunway::HostArray::allocate("Y", 1, 1, paddedM);
  for (std::int64_t r = 0; r < problem.m; ++r)
    for (std::int64_t c = 0; c < problem.k; ++c)
      arrA.at(0, r, c) = a[static_cast<std::size_t>(r * problem.k + c)];
  for (std::int64_t c = 0; c < problem.k; ++c)
    arrX.at(0, 0, c) = x[static_cast<std::size_t>(c)];
  for (std::int64_t r = 0; r < problem.m; ++r)
    arrY.at(0, 0, r) = y[static_cast<std::size_t>(r)];
  mesh.memory().add(std::move(arrA));
  mesh.memory().add(std::move(arrX));
  mesh.memory().add(std::move(arrY));

  rt::ExecScalars scalars{problem.alpha, problem.beta};
  rt::RunOutcome outcome =
      rt::runOnMesh(mesh, kernel.program, params, scalars,
                    2.0 * static_cast<double>(problem.m) *
                        static_cast<double>(problem.k));
  const sunway::HostArray& result = mesh.memory().get("Y");
  for (std::int64_t r = 0; r < problem.m; ++r)
    y[static_cast<std::size_t>(r)] = result.at(0, 0, r);
  return outcome;
}

rt::RunOutcome estimateGemv(const CompiledGemv& kernel,
                            const sunway::ArchConfig& arch,
                            const GemvProblem& problem) {
  std::int64_t paddedM = 0, paddedK = 0;
  auto params = gemvParams(kernel, arch, problem, &paddedM, &paddedK);
  return rt::estimateTiming(arch, kernel.program, params,
                            2.0 * static_cast<double>(problem.m) *
                                static_cast<double>(problem.k));
}

void referenceGemv(double* y, const double* a, const double* x,
                   std::int64_t m, std::int64_t k, double alpha, double beta,
                   std::int64_t kBlock) {
  std::vector<double> xPrime(static_cast<std::size_t>(k));
  for (std::int64_t i = 0; i < k; ++i) xPrime[i] = x[i] * alpha;
  for (std::int64_t r = 0; r < m; ++r) y[r] *= beta;
  for (std::int64_t kb = 0; kb < k; kb += kBlock) {
    const std::int64_t kEnd = kb + kBlock < k ? kb + kBlock : k;
    for (std::int64_t r = 0; r < m; ++r) {
      double acc = 0.0;
      for (std::int64_t c = kb; c < kEnd; ++c)
        acc += a[r * k + c] * xPrime[static_cast<std::size_t>(c)];
      y[r] += acc;
    }
  }
}

}  // namespace sw::core
