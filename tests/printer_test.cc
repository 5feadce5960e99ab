// Golden tests over the generated athread C sources (§7/§8): the printed
// code must carry the protocol structure the paper describes — reply-reset
// before every non-blocking message, sender-guarded broadcasts, double-
// buffer phase indexing, the 64x64x32 micro-kernel invocation, and the
// separate MPE spawn wrapper.
#include <gtest/gtest.h>

#include "core/compiler.h"
#include "core/pipeline.h"

namespace sw::core {
namespace {

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

std::size_t countOccurrences(const std::string& haystack,
                             const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size()))
    ++count;
  return count;
}

TEST(Printer, FullKernelStructure) {
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  const std::string& cpe = kernel.cpeSource;

  // Nine SPM buffers (§6.3): C single, four double-buffered sets.
  EXPECT_TRUE(contains(cpe, "__thread_local double local_C[4096];"));
  EXPECT_TRUE(contains(cpe, "__thread_local double local_A_dma[2][2048];"));
  EXPECT_TRUE(contains(cpe, "__thread_local double local_B_dma[2][2048];"));
  EXPECT_TRUE(contains(cpe, "__thread_local double local_A_rma[2][2048];"));
  EXPECT_TRUE(contains(cpe, "__thread_local double local_B_rma[2][2048];"));

  // Mesh-tile loops and the peeled outer-k structure (no plain ko loop
  // from 0 to K/256; instead a steady-state loop to K/256 - 1).
  EXPECT_TRUE(contains(cpe, "for (long mt = 0; mt < M/512; ++mt)"));
  EXPECT_TRUE(contains(cpe, "for (long nt = 0; nt < N/512; ++nt)"));
  EXPECT_TRUE(contains(cpe, "for (long ko = 0; ko < K/256 - 1; ++ko)"));
  EXPECT_TRUE(contains(cpe, "const long ko = K/256 - 1;"));

  // DMA protocol: reply reset + dma_iget with the Eq.(1) source address
  // and the strip (Y - Y_tau) * sizeof(double).
  EXPECT_TRUE(contains(cpe, "reply_C_get = 0;"));
  EXPECT_TRUE(contains(
      cpe, "dma_iget(&local_C[0], &C[(64*Rid + 512*mt)*N + (64*Cid + "
           "512*nt)], 4096 * sizeof(double), 64 * sizeof(double), (N - 64) "
           "* sizeof(double), &reply_C_get);"));
  EXPECT_TRUE(contains(cpe, "dma_wait_value(&reply_C_get, 1);"));
  EXPECT_TRUE(contains(cpe, "dma_iput("));

  // RMA broadcasts guarded to one sender per row/column (§5).
  EXPECT_TRUE(contains(cpe, "if (Cid == (ki) % 8)"));
  EXPECT_TRUE(contains(cpe, "if (Rid == (ki + 1) % 8)"));
  EXPECT_TRUE(contains(cpe, "rma_row_ibcast("));
  EXPECT_TRUE(contains(cpe, "rma_col_ibcast("));
  EXPECT_TRUE(contains(cpe, "rma_wait_value(&rma_reply_A, 1);"));
  EXPECT_TRUE(contains(cpe, "athread_ssync_array();"));

  // Micro-kernel call with double-buffer phase selectors (§7.2).
  EXPECT_TRUE(contains(
      cpe, "dgemm_asm_64x64x32(&local_C[0], &local_A_rma[(ki) % 2][0], "
           "&local_B_rma[(ki) % 2][0]);"));
}

TEST(Printer, MpeWrapper) {
  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(CodegenOptions{});
  const std::string& mpe = kernel.mpeSource;
  EXPECT_TRUE(contains(mpe, "#include <athread.h>"));
  EXPECT_TRUE(contains(mpe, "athread_init();"));
  EXPECT_TRUE(contains(mpe, "athread_spawn(swgemm_cpe, &args);"));
  EXPECT_TRUE(contains(mpe, "athread_join();"));
  EXPECT_TRUE(contains(mpe, "struct swgemm_args"));
}

TEST(Printer, NoAsmVariantCallsNaiveKernel) {
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.useAsm = false;
  CompiledKernel kernel = compiler.compile(options);
  EXPECT_TRUE(contains(kernel.cpeSource, "dgemm_naive(&local"));
  // Only the extern declaration of the assembly routine remains; no call.
  EXPECT_FALSE(contains(kernel.cpeSource, "dgemm_asm_64x64x32(&local"));
}

TEST(Printer, NoRmaVariantHasNoBroadcasts) {
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.useRma = false;
  options.hideLatency = false;
  CompiledKernel kernel = compiler.compile(options);
  EXPECT_FALSE(contains(kernel.cpeSource, "rma_"));
  EXPECT_TRUE(contains(kernel.cpeSource, "for (long kt = 0; kt < K/32"));
  // Single-buffered: three SPM buffers only.
  EXPECT_TRUE(contains(kernel.cpeSource, "local_A_dma[2048]"));
}

TEST(Printer, UnpipelinedVariantWaitsImmediately) {
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.hideLatency = false;
  CompiledKernel kernel = compiler.compile(options);
  // A plain ko band survives (no peeled prologue/epilogue).
  EXPECT_TRUE(contains(kernel.cpeSource,
                       "for (long ko = 0; ko < K/256; ++ko)"));
  EXPECT_FALSE(contains(kernel.cpeSource, "const long ko ="));
}

TEST(Printer, BatchedKernelLoopsOverBatchInsideCpe) {
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.batched = true;
  CompiledKernel kernel = compiler.compile(options);
  // Batch loop emitted inside the CPE program (§8.3: one mesh launch) and
  // batch-strided addresses.
  EXPECT_TRUE(contains(kernel.cpeSource, "for (long b = 0; b < BATCH; ++b)"));
  EXPECT_TRUE(contains(kernel.cpeSource, "((b)*M + "));
  // Exactly one spawn in the MPE wrapper.
  EXPECT_EQ(countOccurrences(kernel.mpeSource, "athread_spawn"), 1u);
}

TEST(Printer, FusionBodies) {
  SwGemmCompiler compiler;
  CodegenOptions prologue;
  prologue.fusion = FusionKind::kPrologueQuantize;
  CompiledKernel pk = compiler.compile(prologue);
  EXPECT_TRUE(contains(pk.cpeSource, "nearbyint("));

  CodegenOptions epilogue;
  epilogue.fusion = FusionKind::kEpilogueRelu;
  CompiledKernel ek = compiler.compile(epilogue);
  EXPECT_TRUE(contains(ek.cpeSource, "> 0.0 ?"));
}

TEST(Printer, EdgeKernelLoopBoundsTakeTheCeiling) {
  // An edge-tile kernel runs on any shape, so its loops must cover the last
  // partial mesh tile and K panel, as Extent::evaluate does: `M/512` would
  // skip M < 512, and `K/256 - 1` would start the K epilogue at ko = -1.
  SwGemmCompiler compiler;
  CodegenOptions options;
  options.edgeTiles = true;
  CompiledKernel kernel = compiler.compile(options);
  const std::string& cpe = kernel.cpeSource;
  EXPECT_TRUE(contains(cpe, "for (long mt = 0; mt < (M + 511)/512; ++mt)"));
  EXPECT_TRUE(contains(cpe, "for (long nt = 0; nt < (N + 511)/512; ++nt)"));
  EXPECT_TRUE(
      contains(cpe, "for (long ko = 0; ko < (K + 255)/256 - 1; ++ko)"));
  EXPECT_TRUE(contains(cpe, "const long ko = (K + 255)/256 - 1;"));
  EXPECT_FALSE(contains(cpe, "M/512"));
  EXPECT_FALSE(contains(cpe, "K/256"));
}

TEST(Printer, ScheduleDumpsShowPipelineStages) {
  const ScheduleTreeDumps trees =
      dumpScheduleTrees(CodegenOptions{}, sunway::ArchConfig{});
  // Fig.2b: identity band over (i, j, k).
  EXPECT_TRUE(contains(trees.initialTree, "DOMAIN"));
  EXPECT_TRUE(contains(trees.initialTree, "(coincident)"));
  // Fig.4/6: tiled + strip-mined + hardware-bound.
  EXPECT_TRUE(contains(trees.tiledTree, "Rid"));
  EXPECT_TRUE(contains(trees.tiledTree, "floor((k)/256)"));
  // Fig.11: extensions, peeling filters, micro-kernel mark.
  EXPECT_TRUE(contains(trees.finalTree, "EXTENSION"));
  EXPECT_TRUE(contains(trees.finalTree, "ko in [0, K/256 - 1)"));
  EXPECT_TRUE(contains(trees.finalTree, "MARK: \"microkernel\""));
}

}  // namespace
}  // namespace sw::core
