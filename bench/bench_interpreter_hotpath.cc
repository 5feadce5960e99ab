// Hot-path execution engine: the tree-walking interpreter re-evaluates
// every affine expression against a string-keyed environment on each
// iteration of every simulated CPE; the lowered plan (runtime/plan.h)
// replaces that with dense frame slots, pooled expressions, and interned
// IDs.  This bench measures both engines on the same compiled kernel —
// timing-only (SymmetricCpeServices, pure interpreter cost) and functional
// (64-CPE fiber mesh) — plus the one-time cost of lowering itself.  The
// plan's timing-only run also fast-forwards steady-state loop iterations
// (runtime/plan.h), so some of the ops it counts were jumped, not decoded.
#include <chrono>

#include "bench_common.h"
#include "core/pipeline.h"
#include "kernel/microkernel.h"
#include "runtime/interpreter.h"
#include "runtime/plan.h"
#include "sunway/estimator.h"

namespace {

using sw::core::CodegenOptions;
using sw::core::CompiledKernel;
using sw::core::FunctionalRunConfig;
using sw::core::GemmProblem;
using sw::sunway::CpeCounters;

/// Shared compile: one kernel, one plan, one parameter binding.
struct HotPathSetup {
  sw::core::SwGemmCompiler compiler;
  CompiledKernel kernel;
  std::map<std::string, std::int64_t> params;

  HotPathSetup() : kernel(compiler.compile(CodegenOptions{})) {
    const sw::core::PaddedShape padded =
        sw::core::padShape(768, 768, 768, kernel.options, compiler.arch());
    params = sw::rt::bindParams(kernel.program, padded.m, padded.n, padded.k);
  }
};

HotPathSetup& setup() {
  static HotPathSetup s;
  return s;
}

CpeCounters runTimingOnly(bool usePlan) {
  sw::sunway::SymmetricCpeServices services(setup().compiler.arch());
  if (usePlan)
    sw::rt::runCpePlan(*setup().kernel.plan, setup().params,
                       sw::rt::ExecScalars{}, services);
  else
    sw::rt::runCpeProgram(setup().kernel.program, setup().params,
                          sw::rt::ExecScalars{}, services);
  return services.counters();
}

/// Observable interpreter-driven actions of one run: every one of these
/// required walking/decoding the program once.
double interpOps(const CpeCounters& c) {
  return static_cast<double>(c.dmaMessages + c.rmaBroadcastsSent + c.syncs +
                             c.microKernelCalls);
}

/// Affine evaluations per run (approximate: row+col per DMA/RMA issue;
/// loop-bound and guard evaluations come on top of this floor).
double affineEvals(const CpeCounters& c) {
  return 2.0 * static_cast<double>(c.dmaMessages + c.rmaBroadcastsSent);
}

void exportHotPathCounters(benchmark::State& state, const CpeCounters& c) {
  state.counters["interp_ops_per_s"] =
      benchmark::Counter(interpOps(c),
                         benchmark::Counter::kIsIterationInvariantRate);
  // value * 1e-9 with rate+invert flags yields elapsed-ns / evaluations.
  state.counters["ns_per_affine_eval"] = benchmark::Counter(
      affineEvals(c) * 1e-9,
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}

void benchTimingOnly(benchmark::State& state, bool usePlan) {
  CpeCounters counters;
  for (auto _ : state) {
    counters = runTimingOnly(usePlan);
    benchmark::DoNotOptimize(&counters);
  }
  exportHotPathCounters(state, counters);
}

/// `reportCase`, when set, names the PerfReport exported for the
/// trajectory guard (see bench_common.h's exportCaseReport).
void benchFunctional(benchmark::State& state, sw::rt::ExecEngine engine,
                     const char* reportCase) {
  const std::int64_t m = 128, n = 128, k = 128;
  std::vector<double> a(static_cast<std::size_t>(m * k), 0.5);
  std::vector<double> b(static_cast<std::size_t>(k * n), 0.25);
  std::vector<double> c(static_cast<std::size_t>(m * n), 0.0);
  GemmProblem problem{m, n, k, 1, 1.0, 0.0};
  FunctionalRunConfig config;
  config.engine = engine;
  sw::rt::RunOutcome outcome;
  for (auto _ : state) {
    outcome = runGemmFunctional(setup().kernel, setup().compiler.arch(),
                                problem, a, b, c, config);
    benchmark::DoNotOptimize(&outcome);
  }
  exportHotPathCounters(state, outcome.counters);
  if (reportCase != nullptr) sw::bench::exportCaseReport(reportCase, outcome);
}

/// §8.1 pad-tax comparison: one edge-tile kernel, run functionally on the
/// caller's unpadded arrays (edge) vs through zero-padded shadow arrays
/// (padded reference).  Exported counters make the tax visible: the edge
/// path must show strictly fewer simulated micro-kernel flops and zero
/// host pack/unpack bytes.
struct EdgeSetup {
  sw::core::SwGemmCompiler compiler;
  CompiledKernel kernel;

  static CompiledKernel makeKernel(const sw::core::SwGemmCompiler& c) {
    CodegenOptions options;
    options.edgeTiles = true;
    return c.compile(options);
  }
  EdgeSetup() : kernel(makeKernel(compiler)) {}
};

EdgeSetup& edgeSetup() {
  static EdgeSetup s;
  return s;
}

sw::rt::RunOutcome runPadMode(sw::core::PadMode mode, std::int64_t m,
                              std::int64_t n, std::int64_t k) {
  std::vector<double> a(static_cast<std::size_t>(m * k), 0.5);
  std::vector<double> b(static_cast<std::size_t>(k * n), 0.25);
  std::vector<double> c(static_cast<std::size_t>(m * n), 0.0);
  GemmProblem problem{m, n, k, 1, 1.0, 0.0};
  FunctionalRunConfig config;
  config.padMode = mode;
  return runGemmFunctional(edgeSetup().kernel, edgeSetup().compiler.arch(),
                           problem, a, b, c, config);
}

void benchPadMode(benchmark::State& state, sw::core::PadMode mode,
                  const char* reportCase) {
  const std::int64_t m = 100, n = 100, k = 100;
  sw::rt::RunOutcome outcome;
  for (auto _ : state) {
    outcome = runPadMode(mode, m, n, k);
    benchmark::DoNotOptimize(&outcome);
  }
  state.counters["ukernel_flops"] =
      benchmark::Counter(static_cast<double>(outcome.counters.flops));
  state.counters["host_copy_bytes"] =
      benchmark::Counter(static_cast<double>(outcome.hostCopyBytes));
  state.counters["sim_gflops"] = benchmark::Counter(outcome.gflops);
  if (reportCase != nullptr) sw::bench::exportCaseReport(reportCase, outcome);
}

void benchLowering(benchmark::State& state) {
  for (auto _ : state) {
    auto plan = sw::rt::lowerToPlan(setup().kernel.program);
    benchmark::DoNotOptimize(plan.get());
  }
}

/// Direct best-of-N wall-clock comparison, printed before the harness runs
/// so the headline speedup lands in the log (and the README) verbatim.
double bestOfSeconds(int reps, bool usePlan) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    CpeCounters c = runTimingOnly(usePlan);
    benchmark::DoNotOptimize(&c);
    const std::chrono::duration<double> elapsed =
        std::chrono::steady_clock::now() - start;
    best = std::min(best, elapsed.count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  // stderr, so `--benchmark_format=json` on stdout stays machine-parsable.
  std::fprintf(stderr,
               "Interpreter hot path: tree-walk vs lowered plan, kernel '%s' "
               "at M=N=K=768 (timing-only) / 128 (functional).\n",
               setup().kernel.program.name.c_str());
  const double tree = bestOfSeconds(5, /*usePlan=*/false);
  const double plan = bestOfSeconds(5, /*usePlan=*/true);
  std::fprintf(stderr,
               "timing-only best-of-5: tree-walk %.3f ms, plan %.3f ms, "
               "speedup %.2fx\n\n",
               tree * 1e3, plan * 1e3, tree / plan);

  {
    // §8.1 pad tax at 100^3: the padded path rounds every dimension up to
    // the mesh grid and copies through shadow arrays; edge tiles do
    // neither.
    const sw::rt::RunOutcome edge =
        runPadMode(sw::core::PadMode::kEdge, 100, 100, 100);
    const sw::rt::RunOutcome padded =
        runPadMode(sw::core::PadMode::kPadded, 100, 100, 100);
    std::fprintf(stderr,
                 "pad tax, functional 100x100x100: edge %.3g uKernel flops "
                 "+ %lld host copy bytes vs padded %.3g flops + %lld bytes "
                 "(%.0fx flop inflation retired)\n",
                 static_cast<double>(edge.counters.flops),
                 static_cast<long long>(edge.hostCopyBytes),
                 static_cast<double>(padded.counters.flops),
                 static_cast<long long>(padded.hostCopyBytes),
                 static_cast<double>(padded.counters.flops) /
                     static_cast<double>(edge.counters.flops));
    // Paper-scale irregular depth on the timing model: K=1000 rounds up to
    // 1024, so even the symmetric per-CPE model pays the padded k-loop.
    GemmProblem irregular{12288, 12288, 1000, 1};
    const sw::rt::RunOutcome edgeEst = sw::core::estimateGemm(
        edgeSetup().kernel, edgeSetup().compiler.arch(), irregular);
    const sw::rt::RunOutcome paddedEst = sw::core::estimateGemm(
        setup().kernel, setup().compiler.arch(), irregular);
    std::fprintf(stderr,
                 "pad tax, estimated 12288x12288x1000: edge %.2f GFLOPS vs "
                 "padded %.2f GFLOPS (per-CPE flops %.3g vs %.3g)\n\n",
                 edgeEst.gflops, paddedEst.gflops,
                 static_cast<double>(edgeEst.counters.flops),
                 static_cast<double>(paddedEst.counters.flops));
  }

  benchmark::RegisterBenchmark("HotPath/timing_tree_walk", benchTimingOnly,
                               false);
  benchmark::RegisterBenchmark("HotPath/timing_plan", benchTimingOnly, true);
  // Report names are the retired native-engine bench's trajectory rows.
  benchmark::RegisterBenchmark("HotPath/functional_tree_walk",
                               benchFunctional,
                               sw::rt::ExecEngine::kTreeWalk, nullptr);
  benchmark::RegisterBenchmark("HotPath/functional_plan", benchFunctional,
                               sw::rt::ExecEngine::kPlan,
                               "NativeEngine_128_plan");
  benchmark::RegisterBenchmark("HotPath/lower_to_plan", benchLowering);
  benchmark::RegisterBenchmark("HotPath/pad_tax_edge", benchPadMode,
                               sw::core::PadMode::kEdge,
                               "NativeEngine_edge100_plan");
  benchmark::RegisterBenchmark("HotPath/pad_tax_padded", benchPadMode,
                               sw::core::PadMode::kPadded, nullptr);
  // The functional and pad-tax cases are micro-kernel math on the host,
  // so their times depend on which vector ISA it ran on.
  benchmark::AddCustomContext("host_kernel_isa",
                              sw::kernel::hostMicroKernelIsa());
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
