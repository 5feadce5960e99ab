// Pipeline-level tests: shape padding (§8.1), option validation, per-
// variant program structure (buffer plans, op kinds) and the schedule-tree
// dumps matching the paper's figures.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "support/error.h"

namespace sw::core {
namespace {

sunway::ArchConfig arch() { return sunway::ArchConfig{}; }

TEST(PadShape, RoundsToMeshAndStripUnits) {
  CodegenOptions options;
  PaddedShape p = padShape(1000, 513, 300, options, arch());
  EXPECT_EQ(p.m, 1024);
  EXPECT_EQ(p.n, 1024);
  EXPECT_EQ(p.k, 512);  // multiple of 256 with RMA strip-mining
  p = padShape(512, 512, 256, options, arch());
  EXPECT_EQ(p.m, 512);
  EXPECT_EQ(p.n, 512);
  EXPECT_EQ(p.k, 256);
}

TEST(PadShape, NoRmaOnlyNeedsTileKUnits) {
  CodegenOptions options;
  options.useRma = false;
  options.hideLatency = false;
  PaddedShape p = padShape(512, 512, 40, options, arch());
  EXPECT_EQ(p.k, 64);
}

TEST(PadShape, RejectsNonPositiveSizes) {
  CodegenOptions options;
  EXPECT_THROW(padShape(0, 512, 256, options, arch()), sw::InputError);
  EXPECT_THROW(padShape(512, -1, 256, options, arch()), sw::InputError);
}

TEST(Pipeline, HidingWithoutRmaIsRejected) {
  CodegenOptions options;
  options.useRma = false;
  options.hideLatency = true;
  EXPECT_THROW(runGemmPipeline(options, arch()), sw::InputError);
}

TEST(Pipeline, FullVariantBufferPlan) {
  PipelineResult result = runGemmPipeline(CodegenOptions{}, arch());
  ASSERT_EQ(result.program.buffers.size(), 5u);
  EXPECT_EQ(result.program.buffer("C").phases, 1);
  for (const char* set : {"A_dma", "B_dma", "A_rma", "B_rma"})
    EXPECT_EQ(result.program.buffer(set).phases, 2) << set;
  EXPECT_EQ(result.program.spmBytesUsed(), 160 * 1024);
}

TEST(Pipeline, UnpipelinedVariantSingleBuffers) {
  CodegenOptions options;
  options.hideLatency = false;
  PipelineResult result = runGemmPipeline(options, arch());
  for (const char* set : {"A_dma", "B_dma", "A_rma", "B_rma"})
    EXPECT_EQ(result.program.buffer(set).phases, 1) << set;
}

TEST(Pipeline, NoRmaVariantHasThreeBuffers) {
  CodegenOptions options;
  options.useRma = false;
  options.hideLatency = false;
  PipelineResult result = runGemmPipeline(options, arch());
  EXPECT_EQ(result.program.buffers.size(), 3u);
}

TEST(Pipeline, BatchedAddsParameterAndArrayDimension) {
  CodegenOptions options;
  options.batched = true;
  PipelineResult result = runGemmPipeline(options, arch());
  EXPECT_EQ(result.program.params.back(), "BATCH");
  for (const auto& array : result.program.arrays)
    EXPECT_EQ(array.batchParam, "BATCH") << array.name;
}

TEST(Pipeline, TreeDumpsFollowThePaperFigures) {
  const ScheduleTreeDumps result = dumpScheduleTrees(CodegenOptions{}, arch());
  // Fig.2b: plain identity band.
  EXPECT_NE(result.initialTree.find("BAND (permutable)"),
            std::string::npos);
  // Fig.4b/6: Rid/Cid binding and the strip-mined expressions.
  EXPECT_NE(result.tiledTree.find("Rid[0,8)"), std::string::npos);
  EXPECT_NE(result.tiledTree.find("floor((k)/32) - 8*floor((k)/256)"),
            std::string::npos);
  // Fig.11: peeled inner sequence with RMA copies.
  EXPECT_NE(result.finalTree.find("copy:rbcastA_next"),
            std::string::npos);
  EXPECT_NE(result.finalTree.find("ki in [7, 8)"), std::string::npos);
  EXPECT_NE(result.finalTree.find("copy:putC"), std::string::npos);
}

TEST(Pipeline, NonContractTileShapeFallsBackToNaive) {
  // §7.2: the vendor assembly object exists only for 64x64x32.
  CodegenOptions options;
  options.tileM = 32;
  options.tileN = 32;
  const ScheduleTreeDumps result = dumpScheduleTrees(options, arch());
  EXPECT_EQ(result.finalTree.find("MARK: \"microkernel\""),
            std::string::npos);
  EXPECT_NE(result.finalTree.find("MARK: \"naive_compute\""),
            std::string::npos);
}

TEST(Pipeline, OversizedTilesOverflowSpm) {
  CodegenOptions options;
  options.tileM = 128;
  options.tileN = 128;
  options.tileK = 64;
  EXPECT_THROW(runGemmPipeline(options, arch()), sw::InputError);
}

TEST(Pipeline, FusionAddsElementwiseMarks) {
  CodegenOptions prologue;
  prologue.fusion = FusionKind::kPrologueQuantize;
  const ScheduleTreeDumps p = dumpScheduleTrees(prologue, arch());
  EXPECT_NE(p.finalTree.find("elementwise:quantizeA"),
            std::string::npos);

  CodegenOptions epilogue;
  epilogue.fusion = FusionKind::kEpilogueRelu;
  const ScheduleTreeDumps e = dumpScheduleTrees(epilogue, arch());
  EXPECT_NE(e.finalTree.find("elementwise:reluC"), std::string::npos);
}

}  // namespace
}  // namespace sw::core
