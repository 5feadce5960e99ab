#include "core/gemm_runner.h"

#include <chrono>
#include <cstring>
#include <optional>
#include <vector>

#include "jit/native_engine.h"
#include "support/error.h"
#include "support/format.h"
#include "support/logging.h"
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

/// Attempt the native JIT engine for one functional run.  Returns nullopt
/// after bumping `jit.fallback` when the engine is environmentally
/// unavailable (missing compiler, unwritable cache, dlopen failure) so the
/// caller degrades to the plan engine; InputError (caller bug) propagates.
std::optional<rt::RunOutcome> tryRunGemmNative(
    const CompiledKernel& kernel, const sunway::ArchConfig& arch,
    const GemmProblem& problem, std::span<const double> a,
    std::span<const double> b, std::span<double> c, PadMode mode,
    const FunctionalRunConfig& runConfig) {
  trace::Span span("run.native",
                   {trace::arg("m", problem.m), trace::arg("n", problem.n),
                    trace::arg("k", problem.k),
                    trace::arg("batch", problem.batch)},
                   "run");
  const bool tA = kernel.options.transposeA;
  const bool tB = kernel.options.transposeB;
  const std::int64_t aRows = tA ? problem.k : problem.m;
  const std::int64_t aCols = tA ? problem.m : problem.k;
  const std::int64_t bRows = tB ? problem.n : problem.k;
  const std::int64_t bCols = tB ? problem.k : problem.n;

  // Same host-array contract as the mesh path: edge mode binds the
  // caller's buffers in place, padded mode packs zero-padded shadows that
  // this function owns for the duration of the run.
  std::int64_t hostCopyBytes = 0;
  std::map<std::string, std::int64_t> params;
  std::vector<sunway::HostArray> owned;
  double* ptrA = nullptr;
  double* ptrB = nullptr;
  double* ptrC = nullptr;
  if (mode == PadMode::kEdge) {
    SW_CHECK(static_cast<std::int64_t>(a.size()) ==
                 problem.batch * aRows * aCols,
             "input span size does not match the declared shape");
    SW_CHECK(static_cast<std::int64_t>(b.size()) ==
                 problem.batch * bRows * bCols,
             "input span size does not match the declared shape");
    SW_CHECK(static_cast<std::int64_t>(c.size()) ==
                 problem.batch * problem.m * problem.n,
             "input span size does not match the declared shape");
    // A and B receive only reads from the generated code.
    ptrA = const_cast<double*>(a.data());
    ptrB = const_cast<double*>(b.data());
    ptrC = c.data();
    params = rt::bindParams(kernel.program, problem.m, problem.n, problem.k,
                            problem.batch);
  } else {
    const PaddedShape padded =
        padShape(problem.m, problem.n, problem.k, kernel.options, arch);
    owned.push_back(sunway::HostArray::allocate(
        "A", problem.batch, tA ? padded.k : padded.m, tA ? padded.m : padded.k));
    owned.push_back(sunway::HostArray::allocate(
        "B", problem.batch, tB ? padded.n : padded.k, tB ? padded.k : padded.n));
    owned.push_back(sunway::HostArray::allocate("C", problem.batch, padded.m,
                                                padded.n));
    hostCopyBytes += packPadded(owned[0], a, problem.batch, aRows, aCols);
    hostCopyBytes += packPadded(owned[1], b, problem.batch, bRows, bCols);
    if (problem.beta != 0.0) {
      hostCopyBytes += packPadded(owned[2], c, problem.batch, problem.m,
                                  problem.n);
    } else {
      // beta == 0: C is write-only, never pack (possibly NaN) values.
      SW_CHECK(static_cast<std::int64_t>(c.size()) ==
                   problem.batch * problem.m * problem.n,
               "input span size does not match the declared shape");
    }
    ptrA = &owned[0].at(0, 0, 0);
    ptrB = &owned[1].at(0, 0, 0);
    ptrC = &owned[2].at(0, 0, 0);
    params = rt::bindParams(kernel.program, padded.m, padded.n, padded.k,
                            problem.batch);
  }

  jit::NativeRunInput input;
  input.alpha = problem.alpha;
  input.beta = problem.beta;
  for (const std::string& name : kernel.program.params)
    input.params.push_back(params.at(name));
  for (const codegen::ArrayInfo& array : kernel.program.arrays) {
    if (array.name == "A")
      input.arrays.push_back(ptrA);
    else if (array.name == "B")
      input.arrays.push_back(ptrB);
    else if (array.name == "C")
      input.arrays.push_back(ptrC);
    else
      throwInternal(strCat("unknown program array '", array.name, "'"));
  }

  jit::NativeEngineConfig engineConfig;
  engineConfig.cacheDir = runConfig.jitCacheDir;
  const double reportedFlops =
      rt::gemmFlops(problem.m, problem.n, problem.k, problem.batch);
  jit::NativeRunResult native;
  const auto start = std::chrono::steady_clock::now();
  try {
    native = jit::runNative(kernel.program, engineConfig, input);
  } catch (const TransientError& e) {
    metrics::MetricsRegistry::global().add("jit.fallback", 1.0);
    SW_WARN("jit", "event=fallback kernel=", kernel.program.name,
            " reason=\"", e.what(), "\" next=plan");
    return std::nullopt;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  rt::RunOutcome outcome;
  outcome.engine = "native";
  outcome.jitCacheHit = native.cacheHit;
  outcome.seconds = wall;
  outcome.gflops = metrics::safeDiv(reportedFlops, wall) / 1e9;
  outcome.counters = native.counters;
  outcome.metrics =
      rt::deriveRunMetrics(native.counters, wall, arch.meshSize(),
                           kernel.program, arch.spmBytes);
  outcome.metrics.publish(metrics::MetricsRegistry::global(), "run.native.");
  outcome.report =
      rt::buildRunReport(kernel.program, "native", params, wall,
                         arch.meshSize(), reportedFlops, native.counters,
                         arch);
  if (mode != PadMode::kEdge)
    hostCopyBytes += unpackPadded(c, owned[2], problem.batch, problem.m,
                                  problem.n);
  outcome.hostCopyBytes = hostCopyBytes;
  SW_DEBUG("jit", "event=native_run kernel=", kernel.program.name,
           " wall_seconds=", wall, " gflops=", outcome.gflops,
           " cache_hit=", native.cacheHit ? "true" : "false");
  return outcome;
}

}  // namespace

rt::RunOutcome runGemmFunctional(const CompiledKernel& kernel,
                                 const sunway::ArchConfig& arch,
                                 const GemmProblem& problem,
                                 std::span<const double> a,
                                 std::span<const double> b,
                                 std::span<double> c,
                                 const FunctionalRunConfig& runConfig) {
  SW_CHECK(problem.batch >= 1, "batch must be >= 1");
  SW_CHECK(kernel.options.batched || problem.batch == 1,
           "batch > 1 requires a kernel compiled with --batch");
  const PadMode mode = resolvePadMode(kernel, runConfig);
  // Native JIT dispatch: real machine code when the environment allows it.
  // A fault plan pins the run to the simulator (injection is a simulator
  // feature); environmental failures degrade to the plan engine below.
  if (runConfig.engine == rt::ExecEngine::kNative &&
      runConfig.faultPlan == nullptr) {
    if (std::optional<rt::RunOutcome> native = tryRunGemmNative(
            kernel, arch, problem, a, b, c, mode, runConfig))
      return *native;
  }
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
  // kNative reaching this point means the JIT degraded (or a fault plan
  // pinned the simulator): run the lowered plan, the next rung down.
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
  return outcome;
}

rt::RunOutcome estimateGemm(const CompiledKernel& kernel,
                            const sunway::ArchConfig& arch,
                            const GemmProblem& problem) {
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
  return rt::estimateTiming(
      arch, kernel.program, params,
      rt::gemmFlops(problem.m, problem.n, problem.k, problem.batch),
      kernel.plan.get());
}

}  // namespace sw::core
