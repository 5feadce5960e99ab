// Compiler-explorer example: dump every intermediate the pipeline
// produces — the initial schedule tree (Fig.2b), the tiled + hardware-
// bound tree (Fig.4/6), the final tree with DMA/RMA extensions and the
// peeled software pipeline (Fig.9/11), and the generated athread C
// sources (§7/§8).
//
// Usage: inspect_codegen [--no-use-asm] [--no-rma] [--no-hiding]
//                        [--batch] [--fuse-prologue] [--fuse-epilogue]
#include <cstdio>
#include <cstring>

#include "core/compiler.h"
#include "core/pipeline.h"

int main(int argc, char** argv) {
  using namespace sw::core;
  CodegenOptions options;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--no-use-asm") == 0) options.useAsm = false;
    else if (std::strcmp(argv[i], "--no-rma") == 0) {
      options.useRma = false;
      options.hideLatency = false;
    } else if (std::strcmp(argv[i], "--no-hiding") == 0)
      options.hideLatency = false;
    else if (std::strcmp(argv[i], "--batch") == 0)
      options.batched = true;
    else if (std::strcmp(argv[i], "--fuse-prologue") == 0)
      options.fusion = FusionKind::kPrologueQuantize;
    else if (std::strcmp(argv[i], "--fuse-epilogue") == 0)
      options.fusion = FusionKind::kEpilogueRelu;
    else {
      std::fprintf(stderr, "unknown option '%s'\n", argv[i]);
      return 2;
    }
  }

  SwGemmCompiler compiler;
  CompiledKernel kernel = compiler.compile(options);
  const ScheduleTreeDumps trees = dumpScheduleTrees(options, compiler.arch());

  std::printf("================================================================\n");
  std::printf("Stage 1 — initial schedule tree (Fig.2b)\n");
  std::printf("================================================================\n%s\n",
              trees.initialTree.c_str());
  std::printf("================================================================\n");
  std::printf("Stage 2 — after tiling, mesh binding, strip-mining (Fig.4/6)\n");
  std::printf("================================================================\n%s\n",
              trees.tiledTree.c_str());
  std::printf("================================================================\n");
  std::printf("Stage 3 — final tree: DMA/RMA extensions + latency hiding "
              "(Fig.9/11)\n");
  std::printf("================================================================\n%s\n",
              trees.finalTree.c_str());
  std::printf("================================================================\n");
  std::printf("Generated CPE (slave) source\n");
  std::printf("================================================================\n%s\n",
              kernel.cpeSource.c_str());
  std::printf("================================================================\n");
  std::printf("Generated MPE (host) source\n");
  std::printf("================================================================\n%s\n",
              kernel.mpeSource.c_str());
  return 0;
}
