// Semantic analysis and GEMM pattern recognition (§2.3).
//
// The analyzer extracts the polyhedral representation (statement domains
// and access relations) from the parsed function, proves the required
// parallelism/tilability with the dependence analysis — the role isl plays
// in the paper — and classifies the program as plain, batched, or fused
// (prologue quantization / epilogue activation) DGEMM.
#pragma once

#include <string>

#include "frontend/ast.h"
#include "poly/dependence.h"

namespace sw::frontend {

enum class FusionPattern { kNone, kPrologueQuantize, kEpilogueRelu };

struct GemmPatternInfo {
  std::string functionName;

  bool batched = false;
  FusionPattern fusion = FusionPattern::kNone;
  /// Operand layout variants: A[k][i] / B[j][k] in the source select the
  /// transposed GEMM forms.
  bool transposeA = false;
  bool transposeB = false;

  /// User-visible array names, mapped to the canonical roles.  `arrayA` is
  /// the DMA source (for fused prologues: the original, pre-quantization
  /// array, which the generated code re-reads and re-quantizes per tile —
  /// the recomputation of Fig.12a).
  std::string arrayA;
  std::string arrayB;
  std::string arrayC;

  /// Structure parameter names as the user wrote them.
  std::string paramM, paramN, paramK, paramBatch;

  /// Scalar coefficient variables, if present in the source.
  std::string alphaVar;
  std::string betaVar;
  /// True when the source carries an explicit beta-scaling nest
  /// (C[i][j] = beta * C[i][j]) before the accumulation.
  bool hasBetaScale = false;

  /// The extracted polyhedral statements (for inspection and tests).
  std::vector<poly::StatementInfo> statements;

  /// The dependence verdict on the GEMM statement of the user's nest: per
  /// loop, outermost first ((b,) i, j, k), true when the loop carries no
  /// dependence; and whether the whole band is tilable.  An accepted nest
  /// is the canonical pattern up to renaming, so this is the verdict
  /// core::analyzeGemmPattern proves for the pattern.
  std::vector<bool> coincident;
  bool tilable = false;
};

/// Parse + analyse + classify.  Throws InputError with a diagnostic when
/// the program is not an accepted GEMM form or fails the dependence checks.
GemmPatternInfo analyzeGemmSource(const std::string& source);

/// Analysis of an already-parsed function (exposed for tests).
GemmPatternInfo analyzeGemmFunction(const FunctionDecl& function);

}  // namespace sw::frontend
