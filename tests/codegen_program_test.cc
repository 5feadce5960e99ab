// Unit tests of the program IR layer: SPM layout planning, op counting,
// and the schedule-tree -> op-list builder on hand-constructed trees.
#include <gtest/gtest.h>

#include "codegen/program.h"
#include "codegen/program_builder.h"
#include "schedule/transforms.h"
#include "support/error.h"

namespace sw::codegen {
namespace {

using sched::CopyKind;
using sched::CopyStmt;
using sched::Extent;
using sched::RangeRestriction;
using sched::SpmBufferRef;

TEST(SpmPlanner, AssignsSequentialOffsets) {
  KernelProgram program;
  program.buffers = {SpmBufferDecl{"C", 64, 64, 1, 0},
                     SpmBufferDecl{"A", 64, 32, 2, 0}};
  planSpmLayout(program, 256 * 1024);
  EXPECT_EQ(program.buffer("C").spmOffsetBytes, 0);
  EXPECT_EQ(program.buffer("A").spmOffsetBytes, 64 * 64 * 8);
  EXPECT_EQ(program.spmBytesUsed(), 64 * 64 * 8 + 2 * 64 * 32 * 8);
}

TEST(SpmPlanner, RejectsOverflow) {
  KernelProgram program;
  program.buffers = {SpmBufferDecl{"big", 256, 256, 2, 0}};  // 1 MiB
  EXPECT_THROW(planSpmLayout(program, 256 * 1024), sw::InputError);
}

TEST(SpmPlanner, BufferLookupFailsOnUnknownSet) {
  KernelProgram program;
  program.buffers = {SpmBufferDecl{"C", 64, 64, 1, 0}};
  EXPECT_THROW((void)program.buffer("nope"), sw::InternalError);
  EXPECT_THROW((void)program.array("nope"), sw::InternalError);
}

TEST(CountOps, NestedLoopsCounted) {
  OpList inner;
  inner.push_back(Op{SyncOp{}});
  inner.push_back(Op{SyncOp{}});
  OpList outer;
  outer.push_back(
      Op{LoopOp{"i", Extent::constant(0), Extent::constant(4),
                std::move(inner)}});
  outer.push_back(Op{SyncOp{}});
  EXPECT_EQ(countOps(outer), 4u);  // loop + 2 body + trailing sync
}

// --- builder tests on hand-made trees -------------------------------------

poly::IntegerSet simpleDomain() {
  poly::IntegerSet domain("S1", {"i"});
  domain.addRange("i", poly::AffineExpr::dim("M"));
  return domain;
}

TEST(ProgramBuilder, BandsBecomeLoops) {
  sched::ScheduleTree tree =
      sched::buildInitialTree({simpleDomain()}, {true}, true);
  tree.validate();
  OpList ops = buildProgramBody(tree);
  ASSERT_EQ(ops.size(), 1u);
  const auto* loop = std::get_if<LoopOp>(&ops[0].v);
  ASSERT_NE(loop, nullptr);
  EXPECT_EQ(loop->var, "i");
  EXPECT_EQ(loop->end.toString(), "M");
}

TEST(ProgramBuilder, BoundMembersEmitNoLoop) {
  sched::ScheduleTree tree =
      sched::buildInitialTree({simpleDomain()}, {true}, true);
  auto& band = sched::nodeCast<sched::BandNode>(tree.root().onlyChild());
  sched::bindMember(band, 0, "Rid");
  OpList ops = buildProgramBody(tree);
  EXPECT_TRUE(ops.empty());  // nothing under the leaf
}

TEST(ProgramBuilder, SingleIterationRangeBecomesAssign) {
  sched::ScheduleTree tree =
      sched::buildInitialTree({simpleDomain()}, {true}, true);
  auto& band = sched::nodeCast<sched::BandNode>(tree.root().onlyChild());
  // Replace the band's leaf with a sequence of peeled filters over "x".
  auto seq = std::make_unique<sched::SequenceNode>();
  seq->appendChild(sched::makeFilter(
      {sched::syncElement()},
      RangeRestriction{"x", Extent::constant(0), Extent::constant(1)},
      std::make_unique<sched::LeafNode>()));
  seq->appendChild(sched::makeFilter(
      {sched::syncElement()},
      RangeRestriction{"x", Extent::constant(0),
                       Extent::paramDiv("M", 64).plus(-1)},
      std::make_unique<sched::LeafNode>()));
  band.children().clear();
  band.appendChild(std::move(seq));
  tree.validate();

  OpList ops = buildProgramBody(tree);
  ASSERT_EQ(ops.size(), 1u);
  const auto* outer = std::get_if<LoopOp>(&ops[0].v);
  ASSERT_NE(outer, nullptr);
  ASSERT_EQ(outer->body.size(), 2u);
  EXPECT_NE(std::get_if<AssignOp>(&outer->body[0].v), nullptr);
  const auto* steady = std::get_if<LoopOp>(&outer->body[1].v);
  ASSERT_NE(steady, nullptr);
  EXPECT_EQ(steady->end.toString(), "M/64 - 1");
}

TEST(ProgramBuilder, ExtensionCopiesResolveByScope) {
  sched::ScheduleTree tree =
      sched::buildInitialTree({simpleDomain()}, {true}, true);
  auto& band = sched::nodeCast<sched::BandNode>(tree.root().onlyChild());

  auto ext = std::make_unique<sched::ExtensionNode>();
  CopyStmt get;
  get.name = "getX";
  get.kind = CopyKind::kDmaGet;
  get.array = "A";
  get.buffer = SpmBufferRef{"A", std::nullopt, 0};
  get.rowStart = poly::AffineExpr::dim("i");
  get.colStart = poly::AffineExpr::constant(0);
  get.rowsParam = "M";
  get.colsParam = "K";
  get.tileRows = 1;
  get.tileCols = 8;
  get.replySlot = "r";
  ext->copies.push_back(get);

  auto seq = std::make_unique<sched::SequenceNode>();
  seq->appendChild(sched::makeFilter(
      {sched::copyElement("getX"), sched::waitElement("r")}, std::nullopt,
      std::make_unique<sched::LeafNode>()));
  ext->appendChild(std::move(seq));
  band.children().clear();
  band.appendChild(std::move(ext));
  tree.validate();

  OpList ops = buildProgramBody(tree);
  ASSERT_EQ(ops.size(), 1u);
  const auto* loop = std::get_if<LoopOp>(&ops[0].v);
  ASSERT_NE(loop, nullptr);
  ASSERT_EQ(loop->body.size(), 2u);
  const auto* dma = std::get_if<DmaOp>(&loop->body[0].v);
  ASSERT_NE(dma, nullptr);
  EXPECT_EQ(dma->stmt.name, "getX");
  const auto* wait = std::get_if<WaitOp>(&loop->body[1].v);
  ASSERT_NE(wait, nullptr);
  EXPECT_FALSE(wait->isRma);
}

TEST(ProgramBuilder, UnknownCopyReferenceThrows) {
  sched::ScheduleTree tree =
      sched::buildInitialTree({simpleDomain()}, {true}, true);
  auto& band = sched::nodeCast<sched::BandNode>(tree.root().onlyChild());
  auto seq = std::make_unique<sched::SequenceNode>();
  seq->appendChild(sched::makeFilter({sched::copyElement("ghost")},
                                     std::nullopt,
                                     std::make_unique<sched::LeafNode>()));
  sched::wrapOnlyChild(band, std::move(seq));
  EXPECT_THROW(buildProgramBody(tree), sw::InternalError);
}

TEST(ProgramBuilder, ComputeMarkSkipsSubtree) {
  sched::ScheduleTree tree =
      sched::buildInitialTree({simpleDomain()}, {true}, true);
  auto& band = sched::nodeCast<sched::BandNode>(tree.root().onlyChild());
  auto mark = std::make_unique<sched::MarkNode>();
  mark->label = "microkernel";
  sched::ComputeMarkInfo info;
  info.c = SpmBufferRef{"C", std::nullopt, 0};
  info.a = SpmBufferRef{"A", std::nullopt, 0};
  info.b = SpmBufferRef{"B", std::nullopt, 0};
  mark->compute = info;
  sched::wrapOnlyChild(band, std::move(mark));
  tree.validate();

  OpList ops = buildProgramBody(tree);
  const auto* loop = std::get_if<LoopOp>(&ops[0].v);
  ASSERT_NE(loop, nullptr);
  ASSERT_EQ(loop->body.size(), 1u);
  EXPECT_NE(std::get_if<ComputeOp>(&loop->body[0].v), nullptr);
}

TEST(ProgramBuilder, SkippedMarkDropsSubtree) {
  // Fig.12a: the prologue's original nest is bypassed by a "skipped" mark.
  sched::ScheduleTree tree =
      sched::buildInitialTree({simpleDomain()}, {true}, true);
  auto& band = sched::nodeCast<sched::BandNode>(tree.root().onlyChild());
  auto mark = std::make_unique<sched::MarkNode>();
  mark->label = "skipped";
  sched::wrapOnlyChild(band, std::move(mark));
  OpList ops = buildProgramBody(tree);
  ASSERT_EQ(ops.size(), 1u);
  const auto* loop = std::get_if<LoopOp>(&ops[0].v);
  ASSERT_NE(loop, nullptr);
  EXPECT_TRUE(loop->body.empty());
}

}  // namespace
}  // namespace sw::codegen
