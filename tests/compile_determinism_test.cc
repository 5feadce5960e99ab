// Determinism guard for the kernel cache (the correctness precondition of
// cache keying): compiling identical CodegenOptions must yield
// byte-identical generated sources and an equal kernel program, and
// dumping its schedule trees byte-identical dumps, regardless of what else
// the process compiled in between.
//
// Audit notes (PR 2): the pipeline keeps all keyed collections ordered
// (std::map/std::set over strings), never iterates pointer-keyed
// containers, and embeds no timestamps or addresses in its output, so
// determinism holds by construction; this test pins it down.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/pipeline.h"

namespace sw::core {
namespace {

std::vector<CodegenOptions> interestingVariants() {
  std::vector<CodegenOptions> variants;
  variants.emplace_back();  // defaults
  CodegenOptions noAsm;
  noAsm.useAsm = false;
  variants.push_back(noAsm);
  CodegenOptions dmaOnly;
  dmaOnly.useRma = false;
  dmaOnly.hideLatency = false;
  variants.push_back(dmaOnly);
  CodegenOptions batched;
  batched.batched = true;
  variants.push_back(batched);
  CodegenOptions fused;
  fused.fusion = FusionKind::kEpilogueRelu;
  variants.push_back(fused);
  CodegenOptions transposed;
  transposed.transposeA = true;
  variants.push_back(transposed);
  CodegenOptions smallTiles;
  smallTiles.tileM = 32;
  smallTiles.tileN = 32;
  smallTiles.tileK = 32;
  variants.push_back(smallTiles);
  return variants;
}

TEST(CompileDeterminismTest, RepeatedCompilesAreByteIdentical) {
  SwGemmCompiler compiler;
  const std::vector<CodegenOptions> variants = interestingVariants();

  // First sweep, in order.
  std::vector<CompiledKernel> first;
  std::vector<ScheduleTreeDumps> firstTrees;
  first.reserve(variants.size());
  for (const CodegenOptions& options : variants) {
    first.push_back(compiler.compile(options));
    firstTrees.push_back(dumpScheduleTrees(options, compiler.arch()));
  }

  // Second sweep in reverse order, with a fresh compiler instance, so any
  // hidden state carried across compiles (allocator layout, iteration
  // order, memoization) would surface as a diff.
  SwGemmCompiler other;
  for (std::size_t i = variants.size(); i-- > 0;) {
    const CompiledKernel again = other.compile(variants[i]);
    const ScheduleTreeDumps againTrees =
        dumpScheduleTrees(variants[i], other.arch());
    const CompiledKernel& reference = first[i];
    const ScheduleTreeDumps& referenceTrees = firstTrees[i];
    EXPECT_EQ(again.cpeSource, reference.cpeSource) << "variant " << i;
    EXPECT_EQ(again.mpeSource, reference.mpeSource) << "variant " << i;
    EXPECT_EQ(againTrees.initialTree, referenceTrees.initialTree)
        << "variant " << i;
    EXPECT_EQ(againTrees.tiledTree, referenceTrees.tiledTree)
        << "variant " << i;
    EXPECT_EQ(againTrees.finalTree, referenceTrees.finalTree)
        << "variant " << i;
    EXPECT_TRUE(again.program == reference.program) << "variant " << i;
  }
  // The comparison has teeth: distinct variants compile to distinct
  // programs.
  for (std::size_t i = 1; i < first.size(); ++i)
    EXPECT_FALSE(first[i].program == first[0].program) << "variant " << i;
}

TEST(CompileDeterminismTest, CanonicalKeyIsStableAndDiscriminating) {
  const sunway::ArchConfig arch;
  const std::vector<CodegenOptions> variants = interestingVariants();

  std::vector<std::string> keys;
  for (const CodegenOptions& options : variants) {
    keys.push_back(canonicalRequestKey(options, arch));
    // Stable: recomputing yields the same bytes.
    EXPECT_EQ(keys.back(), canonicalRequestKey(options, arch));
  }
  // Discriminating: distinct variants get distinct keys.
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_NE(keys[i], keys[j]) << "variants " << i << " and " << j;

  // The key also covers the architecture: a different mesh is a different
  // kernel.
  sunway::ArchConfig smallMesh;
  smallMesh.meshRows = 4;
  EXPECT_NE(canonicalRequestKey(variants[0], arch),
            canonicalRequestKey(variants[0], smallMesh));
}

}  // namespace
}  // namespace sw::core
