// A functional run moves only live data.  The plan engine records, per SPM
// buffer, the rows x cols the last DMA get or transpose wrote; a broadcast
// copies only the sender's live rows and element-wise ops touch only live
// rows, and a lease re-zeroes only the SPM blocks the previous run wrote.
// edge_tile_test pins that results, ticks and counters stay those of
// whole-tile copies.  These tests pin what a run copies and leaves to
// re-zero, that SPM reads zero at the start of every run, that a broadcast
// destination is handled whole, and that every bounds check still covers
// the modelled tile.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "codegen/program.h"
#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "kernel/microkernel.h"
#include "kernel/reference.h"
#include "runtime/executor.h"
#include "runtime/plan.h"
#include "support/error.h"

namespace sw::core {
namespace {

std::vector<double> randomMatrix(std::int64_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-2.0, 2.0);
  std::vector<double> data(static_cast<std::size_t>(count));
  for (double& v : data) v = dist(rng);
  return data;
}

bool sameBits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

/// Nonzero SPM words across the mesh at the start of a run, read without
/// writing; `dirtyBytes` receives what that read-only run left dirty.
std::int64_t nonzeroSpmWordsAtStart(const sunway::ArchConfig& arch,
                                    std::int64_t& dirtyBytes) {
  sunway::MeshSimulator probe(arch, /*functional=*/true);
  const std::int64_t words = arch.spmBytes / 8;
  std::int64_t nonzero = 0;
  const sunway::MeshRunResult result =
      probe.run([&](sunway::CpeServices& cpe) {
        const double* spm = cpe.spmPtr(0, words, /*writeCount=*/0);
        for (std::int64_t i = 0; i < words; ++i) nonzero += spm[i] != 0.0;
      });
  dirtyBytes = result.hostSpmDirtyBytes;
  return nonzero;
}

// --- the arena: SPM reads zero at the start of every run ---------------

TEST(LiveExtentArena, SpmOfPartBitmapWordsIsReZeroedCpeByCpe) {
  // First in this file, so the arena pool starts empty and this mesh maps
  // an arena of 48 KiB SPMs: 48 one-KiB blocks per CPE, less than a
  // 64-block bitmap word.  Every CPE fills its whole SPM, so a re-zeroing
  // memset that ran on past a CPE's last block would hit the guard page
  // in front of the next CPE's slot.
  sunway::ArchConfig arch;
  arch.spmBytes = 48 * 1024;
  const std::int64_t words = arch.spmBytes / 8;
  for (int round = 0; round < 2; ++round) {
    sunway::MeshSimulator mesh(arch, /*functional=*/true);
    const sunway::MeshRunResult fill =
        mesh.run([&](sunway::CpeServices& cpe) {
          std::fill_n(cpe.spmPtr(0, words), words, 1.0);
        });
    EXPECT_EQ(fill.hostSpmDirtyBytes, 64 * arch.spmBytes);
    std::int64_t probeDirty = -1;
    EXPECT_EQ(nonzeroSpmWordsAtStart(arch, probeDirty), 0)
        << "round " << round;
    EXPECT_EQ(probeDirty, 0) << "a read-only run marked SPM dirty";
  }
}

/// alpha op(A) B + beta C, accumulated as the kernel does.
std::vector<double> expectedC(const CompiledKernel& kernel,
                              const GemmProblem& p,
                              const std::vector<double>& a,
                              const std::vector<double>& b,
                              const std::vector<double>& c0) {
  std::vector<double> aOp = a;
  if (kernel.options.transposeA)
    kernel::tileTranspose(aOp.data(), a.data(), p.k, p.m);
  std::vector<double> c = c0;
  kernel::referenceGemm(c.data(), aOp.data(), b.data(), p.m, p.n, p.k,
                        p.alpha, p.beta, kernel.options.tileK);
  return c;
}

TEST(LiveExtentArena, EveryRunStartsWithZeroSpm) {
  // One thread, so every run leases the arena the run before returned.
  // The transposed kernel's staging buffer sits at 160-196 KB, above
  // every other kernel's SPM.
  const SwGemmCompiler compiler;
  CodegenOptions edge;
  edge.edgeTiles = true;
  CodegenOptions transposed = edge;
  transposed.transposeA = true;
  const CompiledKernel padded = compiler.compile(CodegenOptions{});
  const CompiledKernel edgeKernel = compiler.compile(edge);
  const CompiledKernel transposedKernel = compiler.compile(transposed);
  struct Step {
    const CompiledKernel* kernel;
    std::int64_t size;
  };
  const std::vector<Step> steps = {{&padded, 256},
                                   {&edgeKernel, 1},
                                   {&transposedKernel, 100},
                                   {&padded, 256}};
  std::vector<std::vector<double>> paddedResults;
  for (const Step& step : steps) {
    const std::int64_t s = step.size;
    const GemmProblem problem{s, s, s, 1, 1.5, 0.25};
    const std::vector<double> a = randomMatrix(s * s, 21);
    const std::vector<double> b = randomMatrix(s * s, 22);
    std::vector<double> c = randomMatrix(s * s, 23);
    const std::vector<double> c0 = c;
    const rt::RunOutcome outcome =
        runGemmFunctional(*step.kernel, compiler.arch(), problem, a, b, c);
    EXPECT_GT(outcome.hostSpmDirtyBytes, 0);
    EXPECT_TRUE(sameBits(c, expectedC(*step.kernel, problem, a, b, c0)))
        << step.kernel->program.name << " at " << s;
    if (step.kernel == &padded) paddedResults.push_back(c);
    std::int64_t probeDirty = -1;
    EXPECT_EQ(nonzeroSpmWordsAtStart(compiler.arch(), probeDirty), 0)
        << "after " << step.kernel->program.name << " at " << s;
    EXPECT_EQ(probeDirty, 0) << "a read-only run marked SPM dirty";
  }
  ASSERT_EQ(paddedResults.size(), 2U);
  EXPECT_TRUE(sameBits(paddedResults[0], paddedResults[1]));
}

// --- what a run copies and leaves to re-zero ---------------------------

TEST(LiveExtentHostWork, TinyEdgeRunCopiesAndDirtiesAlmostNothing) {
  // Edge 64x64x32 at 1x1x1: one live element per operand.  Whole-tile
  // broadcasts would copy 16 MiB and dirty every receive buffer.
  const SwGemmCompiler compiler;
  CodegenOptions options;
  options.edgeTiles = true;
  const CompiledKernel kernel = compiler.compile(options);
  const GemmProblem problem{1, 1, 1, 1, 1.0, 1.0};
  const std::vector<double> a{0.5}, b{4.0};
  std::vector<double> c{1.0};
  const rt::RunOutcome outcome =
      runGemmFunctional(kernel, compiler.arch(), problem, a, b, c);
  EXPECT_EQ(c[0], 3.0);
  EXPECT_EQ(outcome.hostCopyBytes, 0);
  EXPECT_GT(outcome.hostRmaCopyBytes, 0);
  EXPECT_LE(outcome.hostRmaCopyBytes, 1024);
  EXPECT_GT(outcome.hostSpmDirtyBytes, 0);
  EXPECT_LE(outcome.hostSpmDirtyBytes, 64 * 1024);
  // The modelled broadcasts are the whole tiles all the same: copied to
  // their 8 receivers each, they would be 16 MiB.
  EXPECT_EQ(8 * outcome.counters.rmaBytesSent, 16 * 1024 * 1024);
}

TEST(LiveExtentHostWork, PaddedRunCopiesWholeTiles) {
  // Padded tiles are all live: every broadcast reaches its 8 receivers in
  // full, 16 MiB at 128^3 (one 512x512x256 mesh tile).
  const SwGemmCompiler compiler;
  const CompiledKernel kernel = compiler.compile(CodegenOptions{});
  const GemmProblem problem{128, 128, 128, 1, 1.0, 1.0};
  const std::vector<double> a = randomMatrix(128 * 128, 1);
  const std::vector<double> b = randomMatrix(128 * 128, 2);
  std::vector<double> c = randomMatrix(128 * 128, 3);
  const rt::RunOutcome outcome =
      runGemmFunctional(kernel, compiler.arch(), problem, a, b, c);
  EXPECT_EQ(outcome.hostRmaCopyBytes, 16 * 1024 * 1024);
  EXPECT_EQ(outcome.hostRmaCopyBytes, 8 * outcome.counters.rmaBytesSent);
}

// --- a broadcast destination is handled whole ---------------------------

/// An 8 x 8 tile DMA between array `array` at (rowStart, colStart) and SPM
/// buffer `buffer`.
sched::CopyStmt tileCopy(sched::CopyKind kind, const std::string& name,
                         const std::string& array, const std::string& buffer,
                         poly::AffineExpr rowStart, poly::AffineExpr colStart,
                         const std::string& bound) {
  sched::CopyStmt stmt;
  stmt.name = name;
  stmt.kind = kind;
  stmt.array = array;
  stmt.buffer = sched::SpmBufferRef{buffer, std::nullopt, 0};
  stmt.rowStart = std::move(rowStart);
  stmt.colStart = std::move(colStart);
  stmt.rowsParam = bound;
  stmt.colsParam = bound;
  stmt.tileRows = 8;
  stmt.tileCols = 8;
  stmt.replySlot = name;
  return stmt;
}

TEST(LiveExtentPlan, BroadcastDestinationIsHandledWhole) {
  // Every CPE first DMAs a clamped 3 x 3 corner of A into R, so R holds a
  // 3 x 3 live record.  Then CPE column 0 row-broadcasts all of A from S
  // into R, every CPE scales R by alpha and puts it into its own 8 x 8
  // block of C.  The broadcast must drop R's record: scaling only the
  // 3 x 3 corner would leave the rest of each block unscaled.
  using codegen::Op;
  using poly::AffineExpr;
  using sched::CopyKind;
  codegen::KernelProgram program;
  program.name = "broadcast_into_a_dma_target";
  program.params = {"M", "N", "K"};
  program.arrays = {codegen::ArrayInfo{"A", "", "K", "K"},
                    codegen::ArrayInfo{"C", "", "M", "N"}};
  program.buffers = {codegen::SpmBufferDecl{"S", 8, 8, 1, 0},
                     codegen::SpmBufferDecl{"R", 8, 8, 1, 0}};
  codegen::planSpmLayout(program, sunway::ArchConfig{}.spmBytes);

  sched::CopyStmt corner =
      tileCopy(CopyKind::kDmaGet, "getCorner", "A", "R",
               AffineExpr::constant(5), AffineExpr::constant(5), "K");
  corner.clampToBounds = true;
  sched::CopyStmt bcast =
      tileCopy(CopyKind::kRmaRowBcast, "bcastA", "A", "R",
               AffineExpr::constant(0), AffineExpr::constant(0), "K");
  bcast.rmaSource = sched::SpmBufferRef{"S", std::nullopt, 0};
  bcast.senderGuard =
      sched::SenderGuard{"Cid", AffineExpr::constant(0)};
  sched::ElementwiseMarkInfo scale;
  scale.op = sched::ElementwiseMarkInfo::Op::kAlphaScaleA;
  scale.target = sched::SpmBufferRef{"R", std::nullopt, 0};
  scale.rows = 8;
  scale.cols = 8;
  program.body = {
      Op{codegen::DmaOp{corner}},
      Op{codegen::DmaOp{tileCopy(CopyKind::kDmaGet, "getA", "A", "S",
                                 AffineExpr::constant(0),
                                 AffineExpr::constant(0), "K")}},
      Op{codegen::WaitOp{"getCorner", false, true}},
      Op{codegen::WaitOp{"getA", false, true}},
      Op{codegen::SyncOp{}},
      Op{codegen::RmaOp{bcast}},
      Op{codegen::WaitOp{"bcastA", true, true}},
      Op{codegen::ElementwiseOp{scale}},
      Op{codegen::DmaOp{tileCopy(CopyKind::kDmaPut, "putC", "C", "R",
                                 AffineExpr::dim("Rid") * 8,
                                 AffineExpr::dim("Cid") * 8, "M")}},
      Op{codegen::WaitOp{"putC", false, true}},
  };
  const std::shared_ptr<const rt::ExecutionPlan> plan =
      rt::lowerToPlan(program);

  const std::vector<double> a = randomMatrix(8 * 8, 31);
  const std::map<std::string, std::int64_t> params = {
      {"M", 64}, {"N", 64}, {"K", 8}};
  const rt::ExecScalars scalars{/*alpha=*/2.0, /*beta=*/1.0};
  std::vector<double> expected(64 * 64);
  for (std::int64_t r = 0; r < 64; ++r)
    for (std::int64_t col = 0; col < 64; ++col)
      expected[static_cast<std::size_t>(r * 64 + col)] =
          2.0 * a[static_cast<std::size_t>(r % 8 * 8 + col % 8)];

  for (const rt::ExecutionPlan* engine :
       {plan.get(), static_cast<const rt::ExecutionPlan*>(nullptr)}) {
    sunway::MeshSimulator mesh(sunway::ArchConfig{}, /*functional=*/true);
    std::vector<double> aHost = a;
    std::vector<double> c(64 * 64, 0.0);
    mesh.memory().add(
        sunway::HostArray::borrow("A", 1, 8, 8, aHost.data()));
    mesh.memory().add(sunway::HostArray::borrow("C", 1, 64, 64, c.data()));
    rt::runOnMesh(mesh, program, params, scalars, 0.0, engine);
    EXPECT_TRUE(sameBits(c, expected))
        << (engine != nullptr ? "plan" : "tree-walk") << " engine";
  }
}

// --- bounds: every check still covers the modelled tile ----------------

/// The error a row broadcast of 8 words from CPE (0,3) raises when only
/// its first word is live; empty if it raises none.
std::string liveWordBroadcastError(std::int64_t srcOffsetBytes,
                                   std::int64_t dstOffsetBytes) {
  const sunway::ArchConfig arch;
  sunway::MeshSimulator mesh(arch, /*functional=*/true);
  try {
    mesh.run([&](sunway::CpeServices& cpe) {
      if (cpe.rid() != 0 || cpe.cid() != 3) return;
      sunway::RmaRequest request;
      request.isSender = true;
      request.bytes = 64;
      request.hostCopy = sunway::TileExtent{1, 1, 8};
      request.srcSpmOffsetBytes = srcOffsetBytes;
      request.dstSpmOffsetBytes = dstOffsetBytes;
      request.slot = "bc";
      request.slotId = cpe.internSlot("bc");
      cpe.rmaIssue(request);
    });
  } catch (const ProtocolError& error) {
    return error.what();
  }
  return {};
}

TEST(LiveExtentBounds, BroadcastWhoseLiveRowsFitStillChecksItsWholeTile) {
  const std::int64_t lastWord = sunway::ArchConfig{}.spmBytes - 8;
  const std::string receiver = liveWordBroadcastError(0, lastWord);
  EXPECT_NE(receiver.find("SPM access of 64 bytes at byte 262136 falls "
                          "outside its 262144-byte SPM"),
            std::string::npos)
      << receiver;
  const std::string sender = liveWordBroadcastError(lastWord, 0);
  EXPECT_NE(sender.find("CPE 0,3: SPM access of 64 bytes at byte 262136"),
            std::string::npos)
      << sender;
  EXPECT_EQ(liveWordBroadcastError(lastWord - 56, 0), "");
}

}  // namespace
}  // namespace sw::core
