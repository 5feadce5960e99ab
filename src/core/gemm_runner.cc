#include "core/gemm_runner.h"

#include <cstring>

#include "support/error.h"
#include "support/format.h"
#include "support/trace.h"
#include "sunway/mesh.h"

namespace sw::core {

namespace {

/// Copy a batch*rows*cols row-major matrix into a zero-padded
/// batch*paddedRows*paddedCols host array, one contiguous row memcpy at a
/// time.  Returns the number of bytes copied.
std::int64_t packPadded(sunway::HostArray& dst, std::span<const double> src,
                        std::int64_t batch, std::int64_t rows,
                        std::int64_t cols) {
  SW_CHECK(static_cast<std::int64_t>(src.size()) == batch * rows * cols,
           "input span size does not match the declared shape");
  const std::int64_t rowBytes = cols * static_cast<std::int64_t>(sizeof(double));
  for (std::int64_t b = 0; b < batch; ++b)
    for (std::int64_t r = 0; r < rows; ++r)
      std::memcpy(&dst.at(b, r, 0),
                  src.data() + static_cast<std::size_t>((b * rows + r) * cols),
                  static_cast<std::size_t>(rowBytes));
  return batch * rows * rowBytes;
}

std::int64_t unpackPadded(std::span<double> dst, const sunway::HostArray& src,
                          std::int64_t batch, std::int64_t rows,
                          std::int64_t cols) {
  const std::int64_t rowBytes = cols * static_cast<std::int64_t>(sizeof(double));
  for (std::int64_t b = 0; b < batch; ++b)
    for (std::int64_t r = 0; r < rows; ++r)
      std::memcpy(dst.data() + static_cast<std::size_t>((b * rows + r) * cols),
                  src.data() + src.offsetOf(b, r, 0),
                  static_cast<std::size_t>(rowBytes));
  return batch * rows * rowBytes;
}

/// The report names the caller's problem; the extents the kernel was bound
/// at (padded on the §8.1 path) stay in its padded shape.
void nameProblem(perf::PerfReport& report, const GemmProblem& problem) {
  report.m = problem.m;
  report.n = problem.n;
  report.k = problem.k;
  report.batch = problem.batch;
}

PadMode resolvePadMode(const CompiledKernel& kernel,
                       const FunctionalRunConfig& runConfig) {
  PadMode mode = runConfig.padMode;
  if (mode == PadMode::kAuto)
    mode = kernel.options.edgeTiles ? PadMode::kEdge : PadMode::kPadded;
  if (mode == PadMode::kEdge && !kernel.options.edgeTiles)
    throw InputError(
        "pad mode 'edge' requires a kernel compiled with edge tiles "
        "(CodegenOptions::edgeTiles / --pad-mode=edge at compile time); "
        "this kernel assumes padded inputs");
  return mode;
}

}  // namespace

void checkBatch(const CodegenOptions& options, const GemmProblem& problem) {
  if (problem.batch < 1)
    throwInput(strCat("batch must be at least 1, got ", problem.batch));
  // An unbatched kernel binds no BATCH parameter: it would compute one
  // GEMM and be charged the flops of all of them.
  if (problem.batch > 1 && !options.batched)
    throwInput(strCat("batch ", problem.batch,
                      " needs a batched kernel, but this kernel computes "
                      "one GEMM per call; compile a batched GEMM source "
                      "or use batch 1"));
}

rt::RunOutcome runGemmFunctional(const CompiledKernel& kernel,
                                 const sunway::ArchConfig& arch,
                                 const GemmProblem& problem,
                                 std::span<const double> a,
                                 std::span<const double> b,
                                 std::span<double> c,
                                 const FunctionalRunConfig& runConfig) {
  checkBatch(kernel.options, problem);
  const PadMode mode = resolvePadMode(kernel, runConfig);
  trace::Span span("run.functional",
                   {trace::arg("m", problem.m), trace::arg("n", problem.n),
                    trace::arg("k", problem.k),
                    trace::arg("batch", problem.batch),
                    trace::arg("pad_mode",
                               mode == PadMode::kEdge ? "edge" : "padded")},
                   "run");

  sunway::MeshSimulator mesh(arch, /*functional=*/true);
  mesh.setFaultPlan(runConfig.faultPlan);
  // Transposed operands are stored in their transposed layout (A: K x M,
  // B: N x K), matching the generated kernel's address computation.
  const bool tA = kernel.options.transposeA;
  const bool tB = kernel.options.transposeB;
  const std::int64_t aRows = tA ? problem.k : problem.m;
  const std::int64_t aCols = tA ? problem.m : problem.k;
  const std::int64_t bRows = tB ? problem.n : problem.k;
  const std::int64_t bCols = tB ? problem.k : problem.n;

  std::int64_t hostCopyBytes = 0;
  std::map<std::string, std::int64_t> params;
  if (mode == PadMode::kEdge) {
    // Bind the caller's unpadded arrays directly and hand the kernel the
    // true extents; the edge-tile clamps keep every transfer and compute
    // inside these bounds.  A and B receive only DMA gets, so the
    // const_cast never results in a write.
    SW_CHECK(static_cast<std::int64_t>(a.size()) ==
                 problem.batch * aRows * aCols,
             "input span size does not match the declared shape");
    SW_CHECK(static_cast<std::int64_t>(b.size()) ==
                 problem.batch * bRows * bCols,
             "input span size does not match the declared shape");
    SW_CHECK(static_cast<std::int64_t>(c.size()) ==
                 problem.batch * problem.m * problem.n,
             "input span size does not match the declared shape");
    mesh.memory().add(sunway::HostArray::borrow(
        "A", problem.batch, aRows, aCols, const_cast<double*>(a.data())));
    mesh.memory().add(sunway::HostArray::borrow(
        "B", problem.batch, bRows, bCols, const_cast<double*>(b.data())));
    mesh.memory().add(sunway::HostArray::borrow("C", problem.batch, problem.m,
                                                problem.n, c.data()));
    params = rt::bindParams(kernel.program, problem.m, problem.n, problem.k,
                            problem.batch);
  } else {
    const PaddedShape padded =
        padShape(problem.m, problem.n, problem.k, kernel.options, arch);
    sunway::HostArray arrA = sunway::HostArray::allocate(
        "A", problem.batch, tA ? padded.k : padded.m, tA ? padded.m : padded.k);
    sunway::HostArray arrB = sunway::HostArray::allocate(
        "B", problem.batch, tB ? padded.n : padded.k, tB ? padded.k : padded.n);
    sunway::HostArray arrC = sunway::HostArray::allocate(
        "C", problem.batch, padded.m, padded.n);
    hostCopyBytes += packPadded(arrA, a, problem.batch, aRows, aCols);
    hostCopyBytes += packPadded(arrB, b, problem.batch, bRows, bCols);
    if (problem.beta != 0.0) {
      // beta == 0 means C is write-only (BLAS semantics): the kernel
      // zero-fills the C tile instead of scaling it, so the caller's
      // values — possibly NaN — must not be packed, let alone read.
      hostCopyBytes += packPadded(arrC, c, problem.batch, problem.m,
                                  problem.n);
    } else {
      SW_CHECK(static_cast<std::int64_t>(c.size()) ==
                   problem.batch * problem.m * problem.n,
               "input span size does not match the declared shape");
    }
    mesh.memory().add(std::move(arrA));
    mesh.memory().add(std::move(arrB));
    mesh.memory().add(std::move(arrC));
    params = rt::bindParams(kernel.program, padded.m, padded.n, padded.k,
                            problem.batch);
  }

  rt::ExecScalars scalars{problem.alpha, problem.beta};
  const rt::ExecutionPlan* plan =
      runConfig.engine == rt::ExecEngine::kTreeWalk ? nullptr
                                                    : kernel.plan.get();
  rt::RunOutcome outcome = rt::runOnMesh(
      mesh, kernel.program, params, scalars,
      rt::gemmFlops(problem.m, problem.n, problem.k, problem.batch), plan);

  if (mode != PadMode::kEdge)
    hostCopyBytes += unpackPadded(c, mesh.memory().get("C"), problem.batch,
                                  problem.m, problem.n);
  outcome.hostCopyBytes = hostCopyBytes;
  span.addArg(trace::arg("host_rma_copy_bytes", outcome.hostRmaCopyBytes));
  span.addArg(trace::arg("host_spm_dirty_bytes", outcome.hostSpmDirtyBytes));
  nameProblem(outcome.report, problem);
  return outcome;
}

rt::RunOutcome estimateGemm(const CompiledKernel& kernel,
                            const sunway::ArchConfig& arch,
                            const GemmProblem& problem) {
  checkBatch(kernel.options, problem);
  trace::Span span("run.estimate_gemm",
                   {trace::arg("m", problem.m), trace::arg("n", problem.n),
                    trace::arg("k", problem.k),
                    trace::arg("batch", problem.batch)},
                   "run");
  // Edge-tile kernels bind the true extents (their transfers and compute
  // clamp to them); padded kernels require the padded shape.
  std::map<std::string, std::int64_t> params;
  if (kernel.options.edgeTiles) {
    params = rt::bindParams(kernel.program, problem.m, problem.n, problem.k,
                            problem.batch);
  } else {
    const PaddedShape padded =
        padShape(problem.m, problem.n, problem.k, kernel.options, arch);
    params = rt::bindParams(kernel.program, padded.m, padded.n, padded.k,
                            problem.batch);
  }
  rt::RunOutcome outcome = rt::estimateTiming(
      arch, kernel.program, params,
      rt::gemmFlops(problem.m, problem.n, problem.k, problem.batch),
      kernel.plan.get());
  nameProblem(outcome.report, problem);
  return outcome;
}

}  // namespace sw::core
