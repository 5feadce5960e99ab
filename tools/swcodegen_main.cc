// swcodegen — the command-line compiler (§8): reads a naive C GEMM, emits
// the athread CPE/MPE sources, and optionally dumps schedule trees,
// estimates performance on the SW26010Pro model, profiles the compile
// pipeline and run, or records a Perfetto-viewable trace.
//
//   swcodegen input.c [-o PREFIX] [--no-use-asm] [--no-rma] [--no-hiding]
//             [--dump-schedule] [--estimate M N K [B]]
//             [--profile] [--trace OUT.json]
//   swcodegen --warm SHAPES | --serve-batch FILE  [-j N]
//   swcodegen --tune M N K [B]  [--tuning-dir DIR]
//
// --batch is detected automatically from the input program (a 4-deep nest
// over 3D arrays), as are the fusion patterns; the explicit flags mirror
// the paper's tool for the ablation variants.  Compiles are served through
// the kernel service's in-memory cache; --warm/--serve-batch compile many
// option variants concurrently on the service's thread pool.  Only tuned
// schedules persist, in the --tuning-dir database.
//
// Exit codes: 0 on success; 2 for a usage or input error (bad arguments,
// an unreadable input, a shape the kernel cannot take); 1 for any other
// failure, including a verification mismatch.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "core/sharded_gemm.h"
#include "kernel/microkernel.h"
#include "service/kernel_service.h"
#include "service/soak.h"
#include "sunway/fault.h"
#include "support/digest.h"
#include "support/error.h"
#include "support/histogram.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace {

void usage(std::FILE* out) {
  std::fprintf(
      out,
      "usage: swcodegen INPUT.c [options]\n"
      "\n"
      "Compile a naive C GEMM into SW26010Pro athread sources.\n"
      "\n"
      "options:\n"
      "  -o PREFIX          output file prefix (default: kernel name)\n"
      "  --no-use-asm       emit the naive loop nest instead of the\n"
      "                     vendor micro-kernel (Fig.13 '+asm' ablation)\n"
      "  --no-rma           re-fetch tiles with DMA instead of RMA\n"
      "                     broadcasts; implicitly disables latency hiding\n"
      "  --no-hiding        disable the two-level software pipeline (§6)\n"
      "  --dump-schedule    print the schedule tree after each stage\n"
      "  --estimate M N K [B]\n"
      "                     report modelled GFLOPS for the given shape;\n"
      "                     shapes past ~9,223 s of simulated time are\n"
      "                     rejected\n"
      "  --pad-mode MODE    how arbitrary shapes meet the kernel's tile\n"
      "                     grid: 'edge' compiles edge-tile clamps and runs\n"
      "                     on unpadded arrays, 'padded' keeps the §8.1\n"
      "                     zero-padding convention, 'auto' (default)\n"
      "                     follows the kernel\n"
      "  --run M N K [B]    compile-and-run the shape functionally on the\n"
      "                     mesh simulator with random data; with edge\n"
      "                     tiles the result is verified bit-for-bit\n"
      "                     against the padded reference run\n"
      "  --engine ENGINE    execution engine for --run: 'plan' (default)\n"
      "                     interprets the lowered plan, 'tree' walks the\n"
      "                     schedule tree; both give bit-identical results\n"
      "                     and simulated times\n"
      "  --groups N         shard --run/--estimate across N concurrent core\n"
      "                     groups (1..6; default 1).  --run verifies the\n"
      "                     sharded result bit-for-bit against the\n"
      "                     single-group reference; --estimate applies the\n"
      "                     shared-DDR contention derate and NoC hand-off\n"
      "                     costs; --tune widens the search space with\n"
      "                     N-group candidates\n"
      "  --profile          print a per-stage compile breakdown, the\n"
      "                     derived run metrics (overlap%%, stall%%, SPM),\n"
      "                     the grouped metrics-registry table and the\n"
      "                     latency-histogram percentiles.  The run metrics\n"
      "                     are the --run shape's, else the --estimate\n"
      "                     shape's; with neither, a one-mesh-tile side\n"
      "                     run's\n"
      "  --report MODE [PATH]\n"
      "                     emit the run's performance report (time\n"
      "                     attribution, roofline position, top\n"
      "                     bottleneck).  MODE is text or json; PATH (must\n"
      "                     not end in .c) selects a file, default stdout.\n"
      "                     Uses the --run outcome when present, else the\n"
      "                     --estimate shape, else a 1024^3 estimate\n"
      "  --trace OUT.json   write a Chrome trace-event file (open in\n"
      "                     https://ui.perfetto.dev): compile spans plus\n"
      "                     per-CPE simulated-clock timelines of the --run\n"
      "                     shape, else the --estimate shape's stepped ops\n"
      "                     and fast-forward spans (with neither, of a\n"
      "                     one-mesh-tile side run)\n"
      "  --tune M N K [B]   search the schedule space for the shape (two\n"
      "                     stages: estimator ranking, then measured mesh\n"
      "                     validation of the top candidates), print the\n"
      "                     winner and write its athread sources; no\n"
      "                     INPUT.c needed, B > 1 tunes the batched\n"
      "                     kernel.  Repeat invocations are served from\n"
      "                     the tuning database without re-searching\n"
      "  --tuning-dir DIR   persistent tuning database for --tune; without\n"
      "                     it nothing persists\n"
      "  --inject SPEC      run a chaos smoke: functional mesh run under a\n"
      "                     deterministic fault plan with retry and\n"
      "                     graceful degradation.  SPEC is ';'-separated\n"
      "                     faults kind[:cpe=N|*][:occ=N][:count=N|forever]\n"
      "                     [:seconds=X][:rate=P][:seed=N], kind one of\n"
      "                     dma-drop dma-corrupt dma-delay rma-drop\n"
      "                     rma-delay stall\n"
      "  --warm SHAPES      pre-compile a comma-separated list of tile\n"
      "                     shapes (e.g. 64x64x32,32x32x32) on the worker\n"
      "                     pool, then exit (no INPUT.c needed)\n"
      "  --serve-batch FILE compile every request in a manifest (one per\n"
      "                     line: tile=MxNxK strip=S batch no-asm no-rma\n"
      "                     no-hiding fuse=relu|quantize transA transB)\n"
      "                     concurrently and report per-request latency;\n"
      "                     malformed lines fail individually with their\n"
      "                     line number, the rest of the batch still runs\n"
      "  --soak N           replay N synthetic requests against the\n"
      "                     admission frontend (Zipfian kernel popularity,\n"
      "                     rotating tenants, bounded priority queue,\n"
      "                     deadlines, per-tenant quotas); --inject runs as\n"
      "                     chaos against periodically verified mesh runs,\n"
      "                     --report json [PATH] emits the soak report\n"
      "                     JSON, --profile appends the admission gauges;\n"
      "                     no INPUT.c needed.  Exits nonzero on any\n"
      "                     wrong-answer completion\n"
      "  --soak-quota RATE  per-tenant token-bucket quota for --soak\n"
      "                     (RATE tokens/s refill, burst = RATE); offered\n"
      "                     load above the rate is shed with a typed\n"
      "                     quota error\n"
      "  -j, --jobs N       worker threads for --warm/--serve-batch\n"
      "                     (default: hardware concurrency)\n"
      "  -h, --help         show this help and exit\n"
      "\n"
      "environment:\n"
      "  SWCODEGEN_LOG         debug|info|warn — structured log threshold\n"
      "  SWCODEGEN_TRACE       path — enable tracing and write there on exit\n"
      "  SWCODEGEN_TUNING_DIR  default for --tuning-dir\n");
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw sw::InputError("cannot open input file '" + path + "'");
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

void writeFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  if (!out) throw sw::InputError("cannot write output file '" + path + "'");
  out << body;
}

std::vector<double> randomMatrix(std::int64_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> data(static_cast<std::size_t>(count));
  for (double& v : data) v = dist(rng);
  return data;
}

/// The host clock of a run, and the vector ISA the host micro-kernel ran
/// it on, on a line of their own.
void printHostLine(std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point done) {
  const std::chrono::duration<double, std::milli> wall = done - start;
  std::printf("host: %.1f ms wall-clock, micro-kernel %s\n", wall.count(),
              sw::kernel::hostMicroKernelIsa());
}

/// "MxNxK batch B" of a --run/--estimate shape.
std::string shapeText(const std::vector<long>& shape) {
  return std::to_string(shape[0]) + "x" + std::to_string(shape[1]) + "x" +
         std::to_string(shape[2]) + " batch " +
         std::to_string(shape.size() == 4 ? shape[3] : 1);
}

/// --run: functional mesh run of an arbitrary shape with random data.
/// Edge-tile kernels self-verify against the padded reference path (same
/// kernel, zero-padded shadow arrays) and print a machine-greppable
/// `result=` verdict; returns nonzero only on a mismatch.
int runShapeSmoke(const sw::core::CompiledKernel& kernel,
                  const sw::sunway::ArchConfig& arch,
                  const std::vector<long>& shape,
                  sw::core::PadMode padMode,
                  sw::rt::ExecEngine engine, long groups,
                  sw::rt::RunOutcome* outcomeOut) {
  const std::int64_t m = shape[0], n = shape[1], k = shape[2];
  const std::int64_t batch = shape.size() == 4 ? shape[3] : 1;
  const bool tA = kernel.options.transposeA;
  const bool tB = kernel.options.transposeB;
  std::vector<double> a =
      randomMatrix(batch * (tA ? k * m : m * k), 11);
  std::vector<double> b =
      randomMatrix(batch * (tB ? n * k : k * n), 12);
  const std::vector<double> c0 = randomMatrix(batch * m * n, 13);
  sw::core::GemmProblem problem{m, n, k, batch};

  sw::core::FunctionalRunConfig runConfig;
  runConfig.padMode = padMode;
  runConfig.engine = engine;

  if (groups > 1) {
    // Multi-group mode: single-group reference first, then the sharded
    // run across `groups` concurrent meshes, verified bit-for-bit.
    std::vector<double> ref = c0;
    sw::core::runGemmFunctional(kernel, arch, problem, a, b, ref, runConfig);

    sw::core::ShardedConfig sharded;
    sharded.groups = static_cast<int>(groups);
    sharded.run = runConfig;
    std::vector<double> c = c0;
    const auto start = std::chrono::steady_clock::now();
    const sw::core::ShardedOutcome outcome = sw::core::runShardedFunctional(
        kernel, arch, sharded, problem, a, b, c);
    const auto done = std::chrono::steady_clock::now();
    std::printf("ran %lldx%lldx%lld batch %lld on %d core groups "
                "(%dx%d C blocks, %lld K chunks): %.2f GFLOPS modelled, "
                "%.3f ms simulated, DDR derate %.2f\n",
                static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k), static_cast<long long>(batch),
                outcome.groupsUsed, outcome.rowBlocks, outcome.colBlocks,
                static_cast<long long>(outcome.kChunks), outcome.gflops,
                outcome.seconds * 1e3, outcome.contentionDerate);
    printHostLine(start, done);
    if (outcomeOut != nullptr) {
      outcomeOut->seconds = outcome.seconds;
      outcomeOut->gflops = outcome.gflops;
      outcomeOut->engine = "sharded-mesh";
      outcomeOut->counters = outcome.counters;
      outcomeOut->report = outcome.report;
      outcomeOut->hostCopyBytes = outcome.hostCopyBytes;
    }
    if (std::memcmp(c.data(), ref.data(), c.size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "run: result=MISMATCH — %d-group sharded run diverged "
                   "from the single-group reference\n",
                   outcome.groupsUsed);
      return 1;
    }
    std::printf("run: result=bit-correct vs single-group reference\n");
    return 0;
  }

  std::vector<double> c = c0;
  const auto start = std::chrono::steady_clock::now();
  const sw::rt::RunOutcome outcome =
      sw::core::runGemmFunctional(kernel, arch, problem, a, b, c, runConfig);
  const auto done = std::chrono::steady_clock::now();
  if (outcomeOut != nullptr) *outcomeOut = outcome;
  const bool ranEdge = kernel.options.edgeTiles &&
                       padMode != sw::core::PadMode::kPadded;
  std::printf("ran %lldx%lldx%lld batch %lld (%s): %.2f GFLOPS modelled, "
              "%.3f ms simulated, %lld uKernel flops, %lld host copy bytes\n",
              static_cast<long long>(m), static_cast<long long>(n),
              static_cast<long long>(k), static_cast<long long>(batch),
              ranEdge ? "edge tiles, unpadded arrays" : "padded arrays",
              outcome.gflops, outcome.seconds * 1e3,
              static_cast<long long>(outcome.counters.flops),
              static_cast<long long>(outcome.hostCopyBytes));
  printHostLine(start, done);

  if (!ranEdge) {
    std::printf("run: result=done\n");
    return 0;
  }
  // Edge tiles promise exact equality with the padded reference: same
  // k-ascending accumulation order, the padding contributes exact zeros.
  sw::core::FunctionalRunConfig refConfig;
  refConfig.padMode = sw::core::PadMode::kPadded;
  std::vector<double> ref = c0;
  const sw::rt::RunOutcome refOutcome =
      sw::core::runGemmFunctional(kernel, arch, problem, a, b, ref,
                                  refConfig);
  std::printf("padded reference: %lld uKernel flops, %lld host copy "
              "bytes\n",
              static_cast<long long>(refOutcome.counters.flops),
              static_cast<long long>(refOutcome.hostCopyBytes));
  if (std::memcmp(c.data(), ref.data(), c.size() * sizeof(double)) != 0) {
    std::fprintf(stderr, "run: result=MISMATCH — edge-tile run diverged "
                         "from the padded reference\n");
    return 1;
  }
  std::printf("run: result=bit-correct vs padded reference\n");
  return 0;
}

/// Smallest shape the kernel accepts unpadded: one mesh tile deep enough
/// for a full pipeline round-trip.  Without --run or --estimate, --profile
/// and --trace use it to light up the 64 per-CPE trace lanes and the
/// mesh-run metrics without a paper-scale functional run.
sw::rt::RunOutcome runFunctionalSmoke(const sw::core::CompiledKernel& kernel,
                                      const sw::sunway::ArchConfig& arch) {
  const sw::core::PaddedShape shape =
      sw::core::padShape(1, 1, 1, kernel.options, arch);
  const std::int64_t batch = kernel.options.batched ? 2 : 1;
  const std::int64_t m = shape.m, n = shape.n,
                     k = 2 * shape.k;  // two outer-k iterations
  std::vector<double> a = randomMatrix(batch * m * k, 1);
  std::vector<double> b = randomMatrix(batch * k * n, 2);
  std::vector<double> c = randomMatrix(batch * m * n, 3);
  sw::core::GemmProblem problem{m, n, k, batch};
  return sw::core::runGemmFunctional(kernel, arch, problem, a, b, c);
}

void printStageBreakdown() {
  // Aggregate compile-category spans by name, in first-seen order.
  std::vector<std::string> order;
  std::map<std::string, double> totalMicros;
  std::map<std::string, int> count;
  for (const sw::trace::TraceEvent& e :
       sw::trace::Tracer::global().snapshot()) {
    if (e.phase != 'X' || e.category != "compile") continue;
    if (totalMicros.find(e.name) == totalMicros.end()) order.push_back(e.name);
    totalMicros[e.name] += e.durMicros;
    ++count[e.name];
  }
  std::printf("compile pipeline breakdown (host wall-clock):\n");
  std::printf("  %-28s %10s %6s\n", "stage", "ms", "calls");
  for (const std::string& name : order)
    std::printf("  %-28s %10.3f %6d\n", name.c_str(),
                totalMicros[name] / 1e3, count[name]);
  std::printf("\n");
}

/// One run's simulated-clock numbers.  Sharded outcomes sum counters over
/// several core groups and carry no derived gauges, so `withGauges` false
/// prints only their seconds, GFLOPS and counters.
void printRunMetrics(const std::string& title,
                     const sw::rt::RunOutcome& outcome, bool withGauges) {
  std::printf("%s:\n", title.c_str());
  std::printf("  %-24s %12.3f ms\n", "simulated time", outcome.seconds * 1e3);
  std::printf("  %-24s %12.2f\n", "model GFLOPS", outcome.gflops);
  const sw::perf::PerfReport::SteadyState& steady =
      outcome.report.steadyState;
  if (steady.jumps > 0)
    std::printf("  %-24s %12.3f %%   (%lld jumps skipped %lld loop "
                "iterations)\n",
                "fast-forwarded", steady.coveredPct,
                static_cast<long long>(steady.jumps),
                static_cast<long long>(steady.iterationsJumped));
  if (withGauges) {
    const sw::metrics::DerivedRunMetrics& m = outcome.metrics;
    std::printf("  %-24s %12.1f %%   (DMA+RMA busy time hidden "
                "behind compute)\n",
                "overlap", m.overlapPct);
    std::printf("  %-24s %12.1f %%   (CPE active time lost to reply "
                "waits)\n",
                "stall", m.stallPct);
    std::printf("  %-24s %12.1f %%\n", "compute occupancy", m.computePct);
    std::printf("  %-24s %9.1f KB   of %.0f KB budget (%.1f%%)\n",
                "SPM high-water",
                static_cast<double>(m.spmHighWaterBytes) / 1024.0,
                static_cast<double>(m.spmBudgetBytes) / 1024.0,
                m.spmBudgetPct);
    for (const auto& [set, bytes] : m.perBufferBytes)
      std::printf("    buffer %-18s %9.1f KB\n", set.c_str(),
                  static_cast<double>(bytes) / 1024.0);
  }
  std::printf("  %-24s %12lld\n", "DMA messages",
              static_cast<long long>(outcome.counters.dmaMessages));
  std::printf("  %-24s %12lld\n", "RMA broadcasts",
              static_cast<long long>(outcome.counters.rmaBroadcastsSent));
  std::printf("  %-24s %12lld\n", "mesh barriers",
              static_cast<long long>(outcome.counters.syncs));
  if (outcome.counters.faultsInjected > 0 || outcome.counters.dmaRetries > 0) {
    std::printf("  %-24s %12lld\n", "faults injected",
                static_cast<long long>(outcome.counters.faultsInjected));
    std::printf("  %-24s %12lld\n", "DMA retries",
                static_cast<long long>(outcome.counters.dmaRetries));
  }
  std::printf("\n");
}

/// --inject: compile-and-run the smoke shape twice — once fault-free, once
/// under the plan through the resilient service path — and verify the
/// recovered result bit-for-bit against the baseline.  Degradations and a
/// machine-greppable `result=` verdict are printed; returns nonzero only
/// when the faulted run produced wrong data.
int runChaosSmoke(sw::service::KernelService& service,
                  const sw::core::CompiledKernel& kernel,
                  const sw::sunway::ArchConfig& arch,
                  std::shared_ptr<const sw::sunway::FaultPlan> plan) {
  const sw::core::PaddedShape shape =
      sw::core::padShape(1, 1, 1, kernel.options, arch);
  const std::int64_t batch = kernel.options.batched ? 2 : 1;
  const std::int64_t m = shape.m, n = shape.n, k = 2 * shape.k;
  const std::vector<double> a = randomMatrix(batch * m * k, 1);
  const std::vector<double> b = randomMatrix(batch * k * n, 2);
  const std::vector<double> c0 = randomMatrix(batch * m * n, 3);
  const sw::core::GemmProblem problem{m, n, k, batch};

  std::printf("fault injection: %s\n", plan->describe().c_str());

  std::vector<double> baseline = c0;
  sw::core::runGemmFunctional(kernel, arch, problem, a, b, baseline);

  std::vector<double> faulted = c0;
  sw::core::FunctionalRunConfig runConfig;
  runConfig.faultPlan = std::move(plan);
  const sw::service::KernelService::ResilientRunResult result =
      service.runResilient(kernel.options, problem, a, b, faulted, runConfig);

  for (const sw::service::KernelService::DegradeStep& step :
       result.degradations)
    std::printf("  degraded %s -> %s: %s\n", step.from.c_str(),
                step.to.c_str(), step.error.c_str());
  std::printf("  faults injected=%lld dma retries=%lld mesh deadlocks=%g\n",
              static_cast<long long>(result.outcome.counters.faultsInjected),
              static_cast<long long>(result.outcome.counters.dmaRetries),
              sw::metrics::MetricsRegistry::global().get("mesh.deadlocks"));

  if (result.usedEstimator) {
    std::printf("chaos smoke: result=degraded-to-estimator (timing only, "
                "%.2f GFLOPS modelled)\n",
                result.outcome.gflops);
    return 0;
  }
  if (!result.degradations.empty()) {
    // A downgraded schedule computes the same GEMM but may associate
    // floating-point sums differently; bit-comparison is only meaningful
    // against the same schedule.
    std::printf("chaos smoke: result=recovered-by-degradation "
                "(served %s schedule)\n",
                result.servedOptions.useAsm
                    ? "asm"
                    : (result.servedOptions.useRma ? "naive" : "no-rma"));
    return 0;
  }
  if (std::memcmp(baseline.data(), faulted.data(),
                  baseline.size() * sizeof(double)) != 0) {
    std::fprintf(stderr,
                 "chaos smoke: result=MISMATCH — faulted run diverged from "
                 "the fault-free baseline\n");
    return 1;
  }
  std::printf("chaos smoke: result=bit-correct after %lld retries\n",
              static_cast<long long>(result.outcome.counters.dmaRetries));
  return 0;
}

/// --soak: replay synthetic traffic against the admission frontend and
/// print the soak report (text always; JSON with --report json).  The
/// --inject plan, when present, runs as chaos against periodically
/// verified functional mesh runs.  Returns nonzero only when a verified
/// run produced a wrong answer — shedding under overload is the expected
/// behaviour, not a failure.
int runSoakMode(sw::service::KernelService& service, long requests,
                double quotaRate,
                std::shared_ptr<const sw::sunway::FaultPlan> plan,
                long jobs, bool profile,
                const std::string& reportMode,
                const std::string& reportPath) {
  sw::service::SoakConfig config;
  config.requests = requests;
  config.clientThreads = 4;
  config.clientWindow = 64;
  config.deadlineSeconds = 0.25;
  if (plan != nullptr) {
    config.chaosPlan = std::move(plan);
    config.verifyEvery = 500;
  }
  config.admission.maxQueueDepth = 128;
  config.admission.workers = jobs > 0 ? static_cast<int>(jobs) : 4;
  if (quotaRate > 0.0)
    for (const std::string& tenant : config.tenants)
      config.admission.tenantQuotas[tenant] =
          sw::service::TenantQuota{quotaRate, quotaRate};

  std::printf("soaking the admission frontend: %ld requests, %d workers, "
              "queue depth %lld, deadline %.0f ms%s%s\n",
              requests, config.admission.workers,
              static_cast<long long>(config.admission.maxQueueDepth),
              config.deadlineSeconds * 1e3,
              quotaRate > 0.0 ? ", per-tenant quota" : "",
              config.chaosPlan != nullptr ? ", chaos active" : "");
  const sw::service::SoakReport report = sw::service::runSoak(service, config);
  std::printf("%s", report.toText().c_str());

  if (reportMode == "json") {
    if (reportPath.empty()) {
      std::printf("%s", report.toJson().c_str());
    } else {
      writeFile(reportPath, report.toJson());
      std::printf("wrote json soak report to %s\n", reportPath.c_str());
    }
  }
  if (profile) {
    std::printf("\nmetrics registry:\n%s",
                sw::metrics::formatMetricsTable(
                    sw::metrics::MetricsRegistry::global().snapshot())
                    .c_str());
    const std::map<std::string, sw::metrics::Histogram> histograms =
        sw::metrics::HistogramRegistry::global().snapshot();
    if (!histograms.empty())
      std::printf("\nlatency histograms:\n%s",
                  sw::metrics::formatHistogramTable(histograms, "ms").c_str());
    std::printf("\n");
  }
  if (report.wrongAnswers > 0) {
    std::fprintf(stderr,
                 "soak: result=WRONG-ANSWERS — %lld verified completions "
                 "diverged from their fault-free baseline\n",
                 static_cast<long long>(report.wrongAnswers));
    return 1;
  }
  std::printf("soak: result=ok shed=%lld wrong=0\n",
              static_cast<long long>(report.shed.total()));
  return 0;
}

/// Strict positive-integer parse for CLI arguments; returns false on any
/// non-numeric, overflowing or non-positive value.
bool parsePositiveLong(const char* text, long* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v <= 0) return false;
  *out = v;
  return true;
}

/// Non-negative double parse for --soak-quota.
bool parseNonNegativeDouble(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*end != '\0' || v < 0.0) return false;
  *out = v;
  return true;
}

/// --tune: resolve the best schedule for a problem shape through the
/// service's tuner (tuning-DB consult, two-stage search on a miss), print
/// the decision with a machine-greppable `schedule source:` line, and
/// write the winner's athread sources.
int runTuneMode(sw::service::KernelService& service,
                const sw::core::CodegenOptions& base,
                const std::vector<long>& shape,
                const std::string& outputPrefix) {
  const sw::core::GemmProblem problem{shape[0], shape[1], shape[2],
                                      shape.size() == 4 ? shape[3] : 1};
  std::printf("tuning %ldx%ldx%ld batch %lld over the schedule space\n",
              shape[0], shape[1], shape[2],
              static_cast<long long>(problem.batch));

  // Enumeration summary (analytic, no pipeline runs): what the search
  // considers and why the §3.2 / SPM constraints shrink it.
  const std::vector<sw::tuning::EnumeratedCandidate> space =
      sw::tuning::enumerateCandidates(base, service.arch(), problem,
                                      service.config().tuner.space);
  int feasible = 0, pruneStrip = 0, pruneSpm = 0, pruneOther = 0;
  for (const sw::tuning::EnumeratedCandidate& e : space) {
    if (e.feasible) {
      ++feasible;
    } else if (e.pruneReason.find("strip factor") != std::string::npos) {
      ++pruneStrip;
    } else if (e.pruneReason.find("SPM") != std::string::npos) {
      ++pruneSpm;
    } else {
      ++pruneOther;
    }
  }
  std::printf("search space: %zu candidates, %d feasible (pruned: %d "
              "strip-factor, %d SPM budget, %d pipeline)\n",
              space.size(), feasible, pruneStrip, pruneSpm, pruneOther);

  // Where the paper's analytic default lands on this shape, for contrast
  // with the tuned winner below.
  try {
    const sw::service::KernelService::KernelPtr defaultKernel =
        service.compile(base);
    const sw::rt::RunOutcome defaultEstimate =
        sw::core::estimateGemm(*defaultKernel, service.arch(), problem);
    std::printf("analytic default %lldx%lldx%lld/s%lld: %.2f GFLOPS "
                "simulated\n",
                static_cast<long long>(base.tileM),
                static_cast<long long>(base.tileN),
                static_cast<long long>(base.tileK),
                static_cast<long long>(base.stripFactor),
                defaultEstimate.gflops);
  } catch (const sw::Error& e) {
    std::printf("analytic default: infeasible for this request (%s)\n",
                e.what());
  }

  const sw::service::KernelService::ResolvedSchedule resolved =
      service.resolveSchedule(base, problem);
  const sw::tuning::TunedScheduleRecord& record = resolved.record;
  char groupsNote[32] = "";
  if (record.schedule.shardedGroups > 1)
    std::snprintf(groupsNote, sizeof(groupsNote), " groups %d",
                  record.schedule.shardedGroups);
  std::printf("best schedule: tile %lldx%lldx%lld strip %lld depth %d %s "
              "mk %dx%d%s — %.2f GFLOPS simulated (%s)\n",
              static_cast<long long>(record.schedule.tileM),
              static_cast<long long>(record.schedule.tileN),
              static_cast<long long>(record.schedule.tileK),
              static_cast<long long>(record.schedule.stripFactor),
              record.schedule.bufferDepth,
              record.schedule.edgeTiles ? "edge" : "pad",
              record.schedule.microMr, record.schedule.microNr, groupsNote,
              record.gflops,
              record.verdict.empty() ? "unvalidated" : record.verdict.c_str());
  std::printf("search report: %d enumerated, %d feasible, %d validated on "
              "the mesh, %.2f s host search time\n",
              record.candidatesEnumerated, record.candidatesFeasible,
              record.candidatesValidated, record.searchSeconds);

  const std::string dbPath = service.tuningDbPath(
      sw::tuning::canonicalTuneKey(base, service.arch(), problem));
  switch (resolved.source) {
    case sw::service::KernelService::ResolvedSchedule::Source::kSearch:
      std::printf("schedule source: search%s%s\n",
                  dbPath.empty() ? " (no tuning dir, decision not persisted)"
                                 : ", stored in ",
                  dbPath.c_str());
      break;
    case sw::service::KernelService::ResolvedSchedule::Source::kDiskHit:
      std::printf("schedule source: tuning-db (disk hit, search not "
                  "re-run: %s)\n",
                  dbPath.c_str());
      break;
    case sw::service::KernelService::ResolvedSchedule::Source::kShared:
      std::printf("schedule source: shared in-flight search\n");
      break;
  }

  sw::service::ServeOutcome outcome = sw::service::ServeOutcome::kCompiled;
  const sw::service::KernelService::KernelPtr kernel =
      service.compile(resolved.options, &outcome);
  const std::string prefix =
      outputPrefix.empty() ? kernel->program.name : outputPrefix;
  writeFile(prefix + "_cpe.c", kernel->cpeSource);
  writeFile(prefix + "_mpe.c", kernel->mpeSource);
  std::printf("wrote %s_cpe.c and %s_mpe.c (kernel '%s', served via %s)\n",
              prefix.c_str(), prefix.c_str(), kernel->program.name.c_str(),
              sw::service::toString(outcome));
  return 0;
}

/// --warm / --serve-batch: print the per-request serving report of a
/// completed batch.  Failed requests (including manifest lines that did
/// not parse — their error carries the 1-based line number) are listed
/// individually; the exit code is nonzero when any request failed.
int reportBatch(sw::service::KernelService& service,
                const std::vector<sw::service::KernelService::BatchResult>&
                    results,
                double wallMs) {
  std::printf("%-4s %-16s %-12s %10s  %s\n", "#", "tile", "outcome",
              "ms", "key");
  int failures = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sw::service::KernelService::BatchResult& r = results[i];
    char tile[48];
    std::snprintf(tile, sizeof(tile), "%ldx%ldx%ld",
                  static_cast<long>(r.options.tileM),
                  static_cast<long>(r.options.tileN),
                  static_cast<long>(r.options.tileK));
    const std::string key = sw::core::canonicalRequestKey(
        r.options, service.arch());
    if (r.error.empty()) {
      std::printf("%-4zu %-16s %-12s %10.3f  %s\n", i, tile,
                  sw::service::toString(r.outcome), r.latencySeconds * 1e3,
                  sw::digestHex(sw::fnv1a64(key)).c_str());
    } else {
      ++failures;
      std::printf("%-4zu %-16s %-12s %10s  error: %s\n", i, tile, "failed",
                  "-", r.error.c_str());
    }
  }
  const sw::service::KernelServiceStats stats = service.stats();
  std::printf("\nbatch of %zu requests in %.3f ms: %lld compiled, "
              "%lld memory hits, %lld shared (hit rate %.1f%%)\n",
              results.size(), wallMs,
              static_cast<long long>(stats.compiles),
              static_cast<long long>(stats.memoryHits),
              static_cast<long long>(stats.shared),
              100.0 * stats.hitRate());
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string inputPath;
  std::string outputPrefix;
  std::string tracePath;
  std::string tuningDir;
  std::string warmShapes;
  std::string batchManifestPath;
  std::string injectSpec;
  std::string reportMode;  // "", "text" or "json"
  std::string reportPath;  // empty = stdout
  long jobs = 0;
  long groups = 1;
  long soakRequests = 0;
  double soakQuota = 0.0;  // 0 = effectively unlimited tenant quotas
  bool dumpSchedule = false;
  bool profile = false;
  bool noRma = false;
  bool noHiding = false;
  std::vector<long> estimate;
  std::vector<long> runShape;
  std::vector<long> tuneShape;
  sw::core::PadMode padMode = sw::core::PadMode::kAuto;
  sw::rt::ExecEngine engine = sw::rt::ExecEngine::kPlan;
  sw::core::CodegenOptions options;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "-h" || arg == "--help") {
      usage(stdout);
      return 0;
    } else if (arg == "-o") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "swcodegen: -o requires an output prefix\n");
        return 2;
      }
      outputPrefix = argv[++i];
    } else if (arg == "--no-use-asm") {
      options.useAsm = false;
    } else if (arg == "--no-rma") {
      noRma = true;
      options.useRma = false;
      options.hideLatency = false;
    } else if (arg == "--no-hiding") {
      noHiding = true;
      options.hideLatency = false;
    } else if (arg == "--dump-schedule") {
      dumpSchedule = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--report") {
      if (i + 1 >= argc || (std::string(argv[i + 1]) != "text" &&
                            std::string(argv[i + 1]) != "json")) {
        std::fprintf(stderr,
                     "swcodegen: --report requires a mode, text or json\n");
        return 2;
      }
      reportMode = argv[++i];
      // An optional output path follows; the INPUT.c positional may sit
      // there too, so a token ending in .c is left for the input parser.
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        const std::string candidate = argv[i + 1];
        const bool looksLikeInput =
            candidate.size() >= 2 &&
            candidate.compare(candidate.size() - 2, 2, ".c") == 0;
        if (!looksLikeInput) reportPath = argv[++i];
      }
    } else if (arg == "--trace") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "swcodegen: --trace requires an output path\n");
        return 2;
      }
      tracePath = argv[++i];
    } else if (arg == "--tuning-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "swcodegen: --tuning-dir requires a directory path\n");
        return 2;
      }
      tuningDir = argv[++i];
    } else if (arg == "--inject") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "swcodegen: --inject requires a fault spec (e.g. "
                     "dma-drop:cpe=0:occ=1)\n");
        return 2;
      }
      injectSpec = argv[++i];
    } else if (arg == "--warm") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "swcodegen: --warm requires a comma-separated list of "
                     "tile shapes (e.g. 64x64x32,32x32x32)\n");
        return 2;
      }
      warmShapes = argv[++i];
    } else if (arg == "--serve-batch") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "swcodegen: --serve-batch requires a manifest file\n");
        return 2;
      }
      batchManifestPath = argv[++i];
    } else if (arg == "--soak") {
      if (i + 1 >= argc || !parsePositiveLong(argv[i + 1], &soakRequests)) {
        std::fprintf(stderr,
                     "swcodegen: --soak requires a positive request count\n");
        return 2;
      }
      ++i;
    } else if (arg == "--soak-quota") {
      if (i + 1 >= argc ||
          !parseNonNegativeDouble(argv[i + 1], &soakQuota) ||
          soakQuota <= 0.0) {
        std::fprintf(stderr,
                     "swcodegen: --soak-quota requires a positive "
                     "tokens-per-second rate\n");
        return 2;
      }
      ++i;
    } else if (arg == "--groups") {
      if (i + 1 >= argc || !parsePositiveLong(argv[i + 1], &groups)) {
        std::fprintf(stderr,
                     "swcodegen: --groups requires a positive core-group "
                     "count\n");
        return 2;
      }
      ++i;
    } else if (arg == "-j" || arg == "--jobs") {
      if (i + 1 >= argc || !parsePositiveLong(argv[i + 1], &jobs)) {
        std::fprintf(stderr,
                     "swcodegen: %s requires a positive thread count\n",
                     arg.c_str());
        return 2;
      }
      ++i;
    } else if (arg == "--estimate" || arg == "--run" || arg == "--tune") {
      // Exactly M N K plus an optional batch count; every value must be a
      // positive integer (silently misparsed shapes used to slip through
      // strtol here).
      std::vector<long>& shape = arg == "--run"
                                     ? runShape
                                     : (arg == "--tune" ? tuneShape
                                                        : estimate);
      for (int want = 0; want < 4; ++want) {
        if (i + 1 >= argc) break;
        if (want == 3 && argv[i + 1][0] == '-') break;  // B is optional
        long value = 0;
        if (!parsePositiveLong(argv[i + 1], &value)) {
          if (want >= 3) break;  // next token is another option
          std::fprintf(stderr,
                       "swcodegen: %s requires positive integers "
                       "M N K [B], got '%s'\n",
                       arg.c_str(), argv[i + 1]);
          return 2;
        }
        shape.push_back(value);
        ++i;
      }
      if (shape.size() < 3) {
        std::fprintf(stderr,
                     "swcodegen: %s requires positive integers M N K [B]\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg == "--engine") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "swcodegen: --engine requires tree or plan\n");
        return 2;
      }
      const std::string name = argv[++i];
      if (name == "plan") {
        engine = sw::rt::ExecEngine::kPlan;
      } else if (name == "tree") {
        engine = sw::rt::ExecEngine::kTreeWalk;
      } else {
        std::fprintf(stderr,
                     "swcodegen: unknown --engine '%s' (want tree or plan)\n",
                     name.c_str());
        return 2;
      }
    } else if (arg == "--pad-mode") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "swcodegen: --pad-mode requires auto, padded or edge\n");
        return 2;
      }
      const std::string mode = argv[++i];
      if (mode == "auto") {
        padMode = sw::core::PadMode::kAuto;
      } else if (mode == "padded") {
        padMode = sw::core::PadMode::kPadded;
        options.edgeTiles = false;
      } else if (mode == "edge") {
        padMode = sw::core::PadMode::kEdge;
        options.edgeTiles = true;
      } else {
        std::fprintf(stderr,
                     "swcodegen: unknown --pad-mode '%s' (want auto, "
                     "padded or edge)\n",
                     mode.c_str());
        return 2;
      }
    } else if (!arg.empty() && arg[0] != '-' && inputPath.empty()) {
      inputPath = arg;
    } else if (!arg.empty() && arg[0] != '-') {
      std::fprintf(stderr,
                   "swcodegen: unexpected extra argument '%s' (input is "
                   "already '%s'; try 'swcodegen --help')\n",
                   arg.c_str(), inputPath.c_str());
      return 2;
    } else {
      std::fprintf(stderr,
                   "swcodegen: unknown option '%s' (try 'swcodegen "
                   "--help')\n",
                   arg.c_str());
      return 2;
    }
  }
  if (tuningDir.empty()) {
    const char* env = std::getenv("SWCODEGEN_TUNING_DIR");
    if (env != nullptr && env[0] != '\0') tuningDir = env;
  }
  const bool batchMode = !warmShapes.empty() || !batchManifestPath.empty();
  const bool tuneMode = !tuneShape.empty();
  const bool soakMode = soakRequests > 0;
  // --tune has no INPUT.c to detect a batched GEMM from: a batch count
  // above 1 asks for the batched kernel.
  if (tuneMode && tuneShape.size() == 4 && tuneShape[3] > 1)
    options.batched = true;
  if (inputPath.empty() && !batchMode && !tuneMode && !soakMode) {
    usage(stderr);
    return 2;
  }
  if (soakMode && (batchMode || tuneMode || !inputPath.empty())) {
    std::fprintf(stderr,
                 "swcodegen: --soak is a standalone mode; drop the INPUT.c "
                 "/ --warm / --serve-batch / --tune arguments\n");
    return 2;
  }
  if (soakQuota > 0.0 && !soakMode) {
    std::fprintf(stderr, "swcodegen: --soak-quota requires --soak\n");
    return 2;
  }
  if (tuneMode && (batchMode || !inputPath.empty() || !injectSpec.empty() ||
                   !reportMode.empty())) {
    std::fprintf(stderr,
                 "swcodegen: --tune is a standalone mode (its base options "
                 "come from the schedule flags); drop the INPUT.c / "
                 "--warm / --serve-batch / --inject / --report arguments\n");
    return 2;
  }
  if (!reportMode.empty() && batchMode) {
    std::fprintf(stderr,
                 "swcodegen: --report describes a single kernel's run and "
                 "needs an INPUT.c compile, not --warm/--serve-batch\n");
    return 2;
  }

  // Bad invocations exit 2 before any compilation work: an unparsable fault
  // plan, --inject without a compile, or an unreadable input file.
  std::shared_ptr<const sw::sunway::FaultPlan> faultPlan;
  if (!injectSpec.empty()) {
    if (batchMode) {
      std::fprintf(stderr,
                   "swcodegen: --inject runs a functional chaos smoke and "
                   "needs an INPUT.c compile, not --warm/--serve-batch\n");
      return 2;
    }
    try {
      faultPlan = std::make_shared<const sw::sunway::FaultPlan>(
          sw::sunway::FaultPlan::parse(injectSpec));
    } catch (const sw::InputError& e) {
      std::fprintf(stderr, "swcodegen: error: %s\n", e.what());
      return 2;
    }
  }
  if (!inputPath.empty()) {
    std::ifstream probe(inputPath);
    if (!probe) {
      std::fprintf(stderr, "swcodegen: error: cannot open input file '%s'\n",
                   inputPath.c_str());
      return 2;
    }
  }

  // The CLI surfaces warnings by default; an explicit $SWCODEGEN_LOG still
  // selects the threshold (including a quieter one).
  if (!sw::logLevelFromEnv()) sw::setLogLevel(sw::LogLevel::kWarn);
  if (noRma && !noHiding)
    SW_WARN("cli",
            "event=implicit_option msg=\"--no-rma implicitly disables "
            "memory latency hiding: the two-level pipeline of §6 requires "
            "the RMA decomposition (pass --no-hiding to silence this)\"");

  if (!tracePath.empty() || profile) sw::trace::Tracer::global().enable();

  try {
    sw::service::KernelServiceConfig serviceConfig;
    serviceConfig.tuningDir = tuningDir;
    serviceConfig.threads = static_cast<int>(jobs);
    if (groups > 1)
      // Widen the schedule search with N-group sharded candidates (scored
      // through the contention-derated estimator); {1} stays in so the
      // single-group default can still win.
      serviceConfig.tuner.space.shardedGroups = {1, static_cast<int>(groups)};
    sw::service::KernelService service(sw::sunway::ArchConfig{},
                                       serviceConfig);

    if (tuneMode) {
      const int rc = runTuneMode(service, options, tuneShape, outputPrefix);
      if (!tracePath.empty()) {
        sw::trace::Tracer::global().writeFile(tracePath);
        std::printf("wrote trace to %s (%zu events)\n", tracePath.c_str(),
                    sw::trace::Tracer::global().eventCount());
      }
      return rc;
    }

    if (soakMode) {
      const int rc =
          runSoakMode(service, soakRequests, soakQuota, faultPlan, jobs,
                      profile, reportMode, reportPath);
      if (!tracePath.empty()) {
        sw::trace::Tracer::global().writeFile(tracePath);
        std::printf("wrote trace to %s (%zu events)\n", tracePath.c_str(),
                    sw::trace::Tracer::global().eventCount());
      }
      return rc;
    }

    if (batchMode) {
      const double start = sw::trace::Tracer::global().nowMicros();
      std::vector<sw::service::KernelService::BatchResult> results;
      if (!warmShapes.empty())
        results = service.compileBatch(sw::service::parseWarmShapes(warmShapes));
      if (!batchManifestPath.empty()) {
        // compileManifest keeps malformed lines in the batch as per-line
        // failures (error = "manifest line <N>: ...") instead of aborting
        // the valid requests around them.
        std::vector<sw::service::KernelService::BatchResult> manifest =
            service.compileManifest(readFile(batchManifestPath));
        if (manifest.empty())
          throw sw::InputError("batch manifest '" + batchManifestPath +
                               "' contains no requests");
        for (auto& r : manifest) results.push_back(std::move(r));
      }
      const double wallMs =
          (sw::trace::Tracer::global().nowMicros() - start) / 1e3;
      const int rc = reportBatch(service, results, wallMs);
      if (!tracePath.empty()) {
        sw::trace::Tracer::global().writeFile(tracePath);
        std::printf("wrote trace to %s (%zu events)\n", tracePath.c_str(),
                    sw::trace::Tracer::global().eventCount());
      }
      return rc;
    }

    const sw::core::SwGemmCompiler compiler;  // estimate/smoke share arch
    // Every single-kernel compile is served through the kernel service so
    // the request latency histogram and the service gauges cover the CLI
    // path too.
    sw::core::CompiledKernel kernel =
        service.compileSource(readFile(inputPath), options);

    if (dumpSchedule) {
      std::printf("--- initial schedule tree ---\n%s\n",
                  kernel.initialTreeDump.c_str());
      std::printf("--- after compute decomposition ---\n%s\n",
                  kernel.tiledTreeDump.c_str());
      std::printf("--- final schedule tree ---\n%s\n",
                  kernel.finalTreeDump.c_str());
    }

    const std::string prefix =
        outputPrefix.empty() ? kernel.program.name : outputPrefix;
    writeFile(prefix + "_cpe.c", kernel.cpeSource);
    writeFile(prefix + "_mpe.c", kernel.mpeSource);
    std::printf("wrote %s_cpe.c and %s_mpe.c (kernel '%s'%s%s)\n",
                prefix.c_str(), prefix.c_str(), kernel.program.name.c_str(),
                kernel.options.batched ? ", batched" : "",
                kernel.options.fusion != sw::core::FusionKind::kNone
                    ? ", fused"
                    : "");

    sw::rt::RunOutcome estimated;
    if (!estimate.empty()) {
      sw::core::GemmProblem problem{estimate[0], estimate[1], estimate[2],
                                    estimate.size() == 4 ? estimate[3] : 1};
      if (groups > 1) {
        sw::core::ShardedConfig sharded;
        sharded.groups = static_cast<int>(groups);
        const sw::core::ShardedOutcome outcome = sw::core::estimateSharded(
            kernel, compiler.arch(), sharded, problem);
        estimated.seconds = outcome.seconds;
        estimated.gflops = outcome.gflops;
        estimated.engine = "sharded-estimator";
        estimated.counters = outcome.counters;
        estimated.report = outcome.report;
        std::printf("estimated %ldx%ldx%ld%s on %d core groups: %.2f "
                    "GFLOPS (%.1f%% of the %d-group peak, DDR derate "
                    "%.2f), %.3f ms\n",
                    estimate[0], estimate[1], estimate[2],
                    estimate.size() == 4
                        ? (" batch " + std::to_string(estimate[3])).c_str()
                        : "",
                    outcome.concurrentGroups, outcome.gflops,
                    100.0 * outcome.gflops /
                        (static_cast<double>(outcome.concurrentGroups) *
                         compiler.arch().peakFlops() / 1e9),
                    outcome.concurrentGroups, outcome.contentionDerate,
                    outcome.seconds * 1e3);
      } else {
        estimated = sw::core::estimateGemm(kernel, compiler.arch(), problem);
        std::printf("estimated %ldx%ldx%ld%s: %.2f GFLOPS (%.1f%% of model "
                    "peak), %.3f ms\n",
                    estimate[0], estimate[1], estimate[2],
                    estimate.size() == 4
                        ? (" batch " + std::to_string(estimate[3])).c_str()
                        : "",
                    estimated.gflops,
                    100.0 * estimated.gflops /
                        (compiler.arch().peakFlops() / 1e9),
                    estimated.seconds * 1e3);
      }
    }

    int runRc = 0;
    sw::rt::RunOutcome runOutcome;
    if (!runShape.empty())
      runRc = runShapeSmoke(kernel, compiler.arch(), runShape, padMode,
                            engine, groups, &runOutcome);

    // --profile and --trace describe the requested run or estimate.  With
    // neither, a one-mesh-tile side run lights up the 64 per-CPE trace
    // lanes and the mesh-run metrics instead.
    sw::rt::RunOutcome smoke;
    const bool wantSmoke = (!tracePath.empty() || profile) && !faultPlan &&
                           runShape.empty() && estimate.empty();
    if (wantSmoke) smoke = runFunctionalSmoke(kernel, compiler.arch());

    int chaosRc = 0;
    if (faultPlan)
      chaosRc = runChaosSmoke(service, kernel, compiler.arch(), faultPlan);

    if (profile) {
      std::printf("\n");
      printStageBreakdown();
      if (!estimate.empty())
        printRunMetrics("estimated run metrics (symmetric model)", estimated,
                        /*withGauges=*/groups <= 1);
      if (!runShape.empty()) {
        const std::string where =
            groups > 1 ? std::to_string(groups) + " core groups, sharded"
                       : "one core group, 64 CPEs";
        printRunMetrics("functional mesh run " + shapeText(runShape) + " (" +
                            where + ")",
                        runOutcome, /*withGauges=*/groups <= 1);
      }
      if (wantSmoke)
        printRunMetrics("functional mesh smoke run (one mesh tile, 64 CPEs)",
                        smoke, /*withGauges=*/true);
      std::printf("metrics registry:\n%s",
                  sw::metrics::formatMetricsTable(
                      sw::metrics::MetricsRegistry::global().snapshot())
                      .c_str());
      const std::map<std::string, sw::metrics::Histogram> histograms =
          sw::metrics::HistogramRegistry::global().snapshot();
      if (!histograms.empty()) {
        std::printf("\nlatency histograms:\n%s",
                    sw::metrics::formatHistogramTable(histograms, "ms")
                        .c_str());
      }
      std::printf("\n");
    }

    if (!reportMode.empty()) {
      // Report the most faithful run available: a functional mesh run
      // beats an estimate beats the default-shape estimate.
      sw::rt::RunOutcome reported;
      if (!runShape.empty()) {
        reported = runOutcome;
      } else if (!estimate.empty()) {
        reported = estimated;
      } else {
        const std::int64_t batch = kernel.options.batched ? 2 : 1;
        reported = sw::core::estimateGemm(kernel, compiler.arch(),
                                          {1024, 1024, 1024, batch});
      }
      const std::string body = reportMode == "json"
                                   ? reported.report.toJson() + "\n"
                                   : reported.report.toText();
      if (reportPath.empty()) {
        std::printf("%s", body.c_str());
      } else {
        writeFile(reportPath, body);
        std::printf("wrote %s report to %s\n", reportMode.c_str(),
                    reportPath.c_str());
      }
    }

    if (tracePath.empty()) {
      // SWCODEGEN_TRACE=path enables collection library-wide; honour it as
      // the output location when --trace was not given.
      const char* env = std::getenv("SWCODEGEN_TRACE");
      if (env != nullptr && env[0] != '\0') tracePath = env;
    }
    if (!tracePath.empty()) {
      sw::trace::Tracer::global().writeFile(tracePath);
      std::printf("wrote trace to %s (%zu events; open in "
                  "https://ui.perfetto.dev)\n",
                  tracePath.c_str(),
                  sw::trace::Tracer::global().eventCount());
    }
    return chaosRc != 0 ? chaosRc : runRc;
  } catch (const sw::InputError& e) {
    std::fprintf(stderr, "swcodegen: error: %s\n", e.what());
    return 2;
  } catch (const sw::Error& e) {
    std::fprintf(stderr, "swcodegen: error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Nothing below sw::Error should escape; if something does, fail with
    // a one-line diagnostic instead of a raw terminate trace.
    std::fprintf(stderr, "swcodegen: internal error: %s\n", e.what());
    return 1;
  }
}
