// The GEMM code-generation pipeline (§3–§7), split where the pattern ends
// and the schedule begins (Halide's algorithm/schedule split):
//   * analyzeGemmPattern runs the dependence analysis of §2.2 once per
//     pattern per process — batched or not, transposes, fusion: at most
//     24 proofs, however many compiles, searches and service workers ask;
//     a source compile hands in the frontend's verdict on the user's nest
//     instead (adoptFrontendVerdict), so it proves once, in the frontend;
//   * runGemmPipeline lowers one schedule of an analysed pattern: compute
//     decomposition, hardware binding, DMA/RMA insertion, memory latency
//     hiding, and lowering to an executable KernelProgram.
// Every compile opens one `pipeline.dependence` span whose `analysis`
// argument says where its pattern's proof came from: `proved` (this call
// ran it), `reused` (an earlier call in this process did) or `frontend`.
// The intermediate schedule trees are rendered only on request, by
// dumpScheduleTrees, for tests and the --dump-schedule path that check them
// against the paper's figures.
#pragma once

#include <string>
#include <vector>

#include "codegen/program.h"
#include "core/options.h"
#include "sunway/arch.h"

namespace sw::core {

/// What the dependence analysis proves about one GEMM pattern.  It depends
/// only on the pattern fields of CodegenOptions, never on the schedule, so
/// one analysis serves every schedule of the pattern.
struct PatternAnalysis {
  /// The pattern the facts were proven for.
  bool batched = false;
  bool transposeA = false;
  bool transposeB = false;
  FusionKind fusion = FusionKind::kNone;
  /// Per loop of the GEMM statement, outermost first ((b,) i, j, k): true
  /// when the loop carries no dependence.
  std::vector<bool> coincident;
  /// The whole band is fully permutable.
  bool tilable = false;

  /// True when `options` describe the pattern this analysis proved.
  [[nodiscard]] bool covers(const CodegenOptions& options) const {
    return batched == options.batched && transposeA == options.transposeA &&
           transposeB == options.transposeB && fusion == options.fusion;
  }
};

/// Prove the pattern of `options` has the 2D parallelism (i and j) and the
/// tilability the GEMM decomposition requires.  Throws InputError if not.
/// The proof runs on the pattern's first call in this process; every later
/// call, from any thread, returns that entry, which lives until the process
/// exits.  Concurrent first calls prove once and share the result; a proof
/// that throws is not remembered.
[[nodiscard]] const PatternAnalysis& analyzeGemmPattern(
    const CodegenOptions& options);

/// The pattern's proof for a source compile: `verdict` is the frontend's
/// dependence verdict on the user's nest (frontend::GemmPatternInfo), which
/// an accepted nest shares with the canonical pattern.  It becomes the
/// pattern's entry when this process has none yet; otherwise the two must
/// agree (InternalError if not).  Returns the pattern's entry.
[[nodiscard]] const PatternAnalysis& adoptFrontendVerdict(
    const PatternAnalysis& verdict);

/// Pipeline output: the executable/printable kernel program.
struct PipelineResult {
  codegen::KernelProgram program;
};

/// Lower the schedule in `options` for a pattern `analysis` has proven
/// (`analysis.covers(options)` must hold).  Throws InputError if the
/// options are inconsistent or the SPM working set would overflow.
PipelineResult runGemmPipeline(const CodegenOptions& options,
                               const sunway::ArchConfig& arch,
                               const PatternAnalysis& analysis);

/// analyzeGemmPattern(options), then the lowering above.
PipelineResult runGemmPipeline(const CodegenOptions& options,
                               const sunway::ArchConfig& arch);

/// The schedule tree after each stage, as ScheduleTree::toString renders it.
struct ScheduleTreeDumps {
  std::string initialTree;  // Fig.2b (Fig.3 when batched)
  std::string tiledTree;    // Fig.4 / Fig.6
  std::string finalTree;    // Fig.9 / Fig.11
};

/// Run the whole pipeline for `options` with a recorder of the stage trees.
/// Compiles never render trees; this is the one path that does.
[[nodiscard]] ScheduleTreeDumps dumpScheduleTrees(
    const CodegenOptions& options, const sunway::ArchConfig& arch);

/// Padded problem sizes: M, N rounded up to meshRows*tileM / meshCols*tileN
/// and K to stripFactor*tileK (or tileK without RMA), per the zero-padding
/// convention of §8.1.
struct PaddedShape {
  std::int64_t m = 0, n = 0, k = 0;
};
PaddedShape padShape(std::int64_t m, std::int64_t n, std::int64_t k,
                     const CodegenOptions& options,
                     const sunway::ArchConfig& arch);

}  // namespace sw::core
