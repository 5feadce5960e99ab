// Convenience execution wrappers around a CompiledKernel: functional runs
// on the mesh simulator and scalable timing estimates.  Two host
// paths exist: the padded reference (zero-padded shadow arrays per §8.1's
// convention) and the edge-tile path, which binds the caller's unpadded
// arrays directly when the kernel was compiled with edge tiles.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/compiler.h"
#include "runtime/executor.h"
#include "sunway/fault.h"

namespace sw::core {

struct GemmProblem {
  std::int64_t m = 0, n = 0, k = 0;
  std::int64_t batch = 1;
  double alpha = 1.0;
  double beta = 1.0;
};

/// How the host arrays meet the kernel's shape preconditions
/// (--pad-mode).
enum class PadMode {
  /// Edge-tile kernels run on the caller's arrays directly; others pad.
  kAuto,
  /// Always allocate zero-padded shadow arrays (the §8.1 reference path).
  /// Works for any kernel, including edge-tile ones (whose clamps never
  /// bind at padded sizes).
  kPadded,
  /// Bind the caller's unpadded arrays directly (no pack/unpack copies);
  /// requires a kernel compiled with CodegenOptions::edgeTiles.
  kEdge,
};

/// Resilience knobs for functional mesh runs.
struct FunctionalRunConfig {
  /// Installed on the mesh before running; nullptr disables injection.
  std::shared_ptr<const sunway::FaultPlan> faultPlan;
  /// Per-CPE engine: the lowered plan by default (falls back to the
  /// tree-walk when the kernel carries no plan) or the tree-walking
  /// reference interpreter.  Both produce bit-identical C, counters and
  /// simulated seconds.
  rt::ExecEngine engine = rt::ExecEngine::kPlan;
  /// Host-array strategy; see PadMode.
  PadMode padMode = PadMode::kAuto;
};

/// Throws InputError unless a kernel compiled with `options` can take
/// `problem.batch`: the batch is at least 1, and above 1 only for a
/// batched kernel.  The runners below check it themselves.
void checkBatch(const CodegenOptions& options, const GemmProblem& problem);

/// Run the compiled kernel functionally on the 64-CPE mesh simulator.
/// `a` is batch*m*k row-major, `b` batch*k*n, `c` batch*m*n (read-write:
/// C = alpha*A*B + beta*C lands back in `c`; transposed operands use their
/// transposed layouts).  Depending on the resolved PadMode the inputs are
/// either zero-padded into shadow arrays or bound in place (edge tiles).
/// BLAS semantics hold either way: beta == 0 never reads C.  Returns
/// timing/counters (including hostCopyBytes moved by pack/unpack).
rt::RunOutcome runGemmFunctional(const CompiledKernel& kernel,
                                 const sunway::ArchConfig& arch,
                                 const GemmProblem& problem,
                                 std::span<const double> a,
                                 std::span<const double> b,
                                 std::span<double> c,
                                 const FunctionalRunConfig& runConfig = {});

/// Timing-only estimate for paper-scale shapes (no data, sequential
/// symmetric model).
rt::RunOutcome estimateGemm(const CompiledKernel& kernel,
                            const sunway::ArchConfig& arch,
                            const GemmProblem& problem);

}  // namespace sw::core
