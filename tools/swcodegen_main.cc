// swcodegen — the command-line compiler (§8).  An invocation runs one of
// four modes: an INPUT.c compile (emit the athread CPE/MPE sources of a
// naive C GEMM; optionally dump schedule trees, estimate or run a shape on
// the SW26010Pro model, or run a chaos smoke), --tune M N K [B] (search a
// shape's schedule), --warm SHAPES / --serve-batch FILE (compile many
// option variants concurrently on the kernel service's pool) or --soak N
// (replay traffic against the admission frontend).
//
// Each option is one row of the option table below; parsing, usage errors,
// mode checks and --help all come from it.  An option outside its mode, or
// two modes, is a usage error.  Every mode ends in one epilogue that prints
// --profile, emits --report and writes --trace (or $SWCODEGEN_TRACE).
//
// --batch is detected automatically from the input program (a 4-deep nest
// over 3D arrays), as are the fusion patterns; the explicit flags mirror
// the paper's tool for the ablation variants.  Compiles are served through
// the kernel service's in-memory cache; only tuned schedules persist, in
// the --tuning-dir database.
//
// Exit codes: 0 on success; 2 for a usage or input error (bad arguments,
// an unreadable input, a shape the kernel cannot take); 1 for any other
// failure, including a verification mismatch.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "core/pipeline.h"
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

sw::core::GemmProblem problemOf(const std::vector<long>& shape) {
  return {shape[0], shape[1], shape[2], shape.size() == 4 ? shape[3] : 1};
}

/// "MxNxK batch B" of a --run/--estimate/--tune shape.
std::string shapeText(const std::vector<long>& shape) {
  return std::to_string(shape[0]) + "x" + std::to_string(shape[1]) + "x" +
         std::to_string(shape[2]) + " batch " +
         std::to_string(problemOf(shape).batch);
}

/// A sharded run or estimate as the outcome --profile and --report read.
sw::rt::RunOutcome asRunOutcome(const sw::core::ShardedOutcome& sharded) {
  sw::rt::RunOutcome outcome;
  outcome.seconds = sharded.seconds;
  outcome.gflops = sharded.gflops;
  outcome.counters = sharded.counters;
  outcome.report = sharded.report;
  outcome.hostCopyBytes = sharded.hostCopyBytes;
  outcome.hostRmaCopyBytes = sharded.hostRmaCopyBytes;
  outcome.hostSpmDirtyBytes = sharded.hostSpmDirtyBytes;
  return outcome;
}

/// Writes the athread sources under `prefix` (default: the kernel's name).
void writeSources(const sw::core::CompiledKernel& kernel,
                  const std::string& prefix, const std::string& note) {
  const std::string base = prefix.empty() ? kernel.program.name : prefix;
  writeFile(base + "_cpe.c", kernel.cpeSource);
  writeFile(base + "_mpe.c", kernel.mpeSource);
  std::printf("wrote %s_cpe.c and %s_mpe.c (kernel '%s'%s)\n", base.c_str(),
              base.c_str(), kernel.program.name.c_str(), note.c_str());
}

/// --run: functional mesh run of an arbitrary shape with random data.
/// Edge-tile kernels self-verify against the padded reference path (same
/// kernel, zero-padded shadow arrays) and print a machine-greppable
/// `result=` verdict; returns nonzero only on a mismatch.
int runShapeSmoke(const sw::core::CompiledKernel& kernel,
                  const sw::sunway::ArchConfig& arch,
                  const sw::core::GemmProblem& problem,
                  const sw::core::FunctionalRunConfig& runConfig, long groups,
                  sw::rt::RunOutcome& outcome) {
  const std::int64_t m = problem.m, n = problem.n, k = problem.k,
                     batch = problem.batch;
  // Transposed operands hold the same element count as plain ones.
  const std::vector<double> a = randomMatrix(batch * m * k, 11);
  const std::vector<double> b = randomMatrix(batch * k * n, 12);
  const std::vector<double> c0 = randomMatrix(batch * m * n, 13);

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
    const sw::core::ShardedOutcome shard = sw::core::runShardedFunctional(
        kernel, arch, sharded, problem, a, b, c);
    const auto done = std::chrono::steady_clock::now();
    std::printf("ran %lldx%lldx%lld batch %lld on %d core groups "
                "(%dx%d C blocks, %lld K chunks): %.2f GFLOPS modelled, "
                "%.3f ms simulated, DDR derate %.2f\n",
                static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k), static_cast<long long>(batch),
                shard.groupsUsed, shard.rowBlocks, shard.colBlocks,
                static_cast<long long>(shard.kChunks), shard.gflops,
                shard.seconds * 1e3, shard.contentionDerate);
    printHostLine(start, done);
    outcome = asRunOutcome(shard);
    if (std::memcmp(c.data(), ref.data(), c.size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "run: result=MISMATCH — %d-group sharded run diverged "
                   "from the single-group reference\n",
                   shard.groupsUsed);
      return 1;
    }
    std::printf("run: result=bit-correct vs single-group reference\n");
    return 0;
  }

  std::vector<double> c = c0;
  const auto start = std::chrono::steady_clock::now();
  outcome =
      sw::core::runGemmFunctional(kernel, arch, problem, a, b, c, runConfig);
  const auto done = std::chrono::steady_clock::now();
  const bool ranEdge = kernel.options.edgeTiles &&
                       runConfig.padMode != sw::core::PadMode::kPadded;
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
/// for a full pipeline round-trip, with seeded operands.  The --profile
/// and --trace side run and the --inject chaos smoke run it.
struct SmokeRun {
  sw::core::GemmProblem problem;
  std::vector<double> a, b, c;
};

SmokeRun smokeRun(const sw::core::CompiledKernel& kernel,
                  const sw::sunway::ArchConfig& arch) {
  const sw::core::PaddedShape shape =
      sw::core::padShape(1, 1, 1, kernel.options, arch);
  const std::int64_t batch = kernel.options.batched ? 2 : 1;
  const std::int64_t m = shape.m, n = shape.n,
                     k = 2 * shape.k;  // two outer-k iterations
  return {{m, n, k, batch}, randomMatrix(batch * m * k, 1),
          randomMatrix(batch * k * n, 2), randomMatrix(batch * m * n, 3)};
}

void printStageBreakdown() {
  // Aggregate compile-category spans by name, in first-seen order.  A
  // span's `analysis` argument (pipeline.dependence: proved, reused or
  // frontend) splits its row, since a proof is most of a compile's cost.
  std::vector<std::string> order;
  std::map<std::string, double> totalMicros;
  std::map<std::string, int> count;
  for (const sw::trace::TraceEvent& e :
       sw::trace::Tracer::global().snapshot()) {
    if (e.phase != 'X' || e.category != "compile") continue;
    std::string stage = e.name;
    for (const sw::trace::TraceArg& arg : e.args)
      if (arg.key == "analysis") stage += " (" + arg.value + ")";
    if (totalMicros.find(stage) == totalMicros.end()) order.push_back(stage);
    totalMicros[stage] += e.durMicros;
    ++count[stage];
  }
  std::printf("compile pipeline breakdown (host wall-clock):\n");
  std::printf("  %-32s %10s %6s\n", "stage", "ms", "calls");
  for (const std::string& stage : order)
    std::printf("  %-32s %10.3f %6d\n", stage.c_str(),
                totalMicros[stage] / 1e3, count[stage]);
  std::printf("\n");
}

/// One run's simulated-clock numbers, read from its report and counters;
/// the same block for mesh runs, sharded runs and estimates.
void printRunMetrics(const std::string& title,
                     const sw::rt::RunOutcome& outcome) {
  const sw::perf::PerfReport& report = outcome.report;
  std::printf("%s, simulated clock:\n", title.c_str());
  std::printf("  %-24s %12.3f ms\n", "simulated time", outcome.seconds * 1e3);
  std::printf("  %-24s %12.2f\n", "model GFLOPS", outcome.gflops);
  const sw::perf::PerfReport::SteadyState& steady = report.steadyState;
  if (steady.jumps > 0)
    std::printf("  %-24s %12.3f %%   (%lld jumps skipped %lld loop "
                "iterations)\n",
                "fast-forwarded", steady.coveredPct,
                static_cast<long long>(steady.jumps),
                static_cast<long long>(steady.iterationsJumped));
  std::printf("  %-24s %12.1f %%   (DMA+RMA busy time hidden behind "
              "compute)\n",
              "overlap", report.overlapPct);
  std::printf("  time attribution (share of aggregate CPE time):\n");
  for (const sw::perf::PerfReport::Attribution::Row& row :
       report.attribution.rows())
    std::printf("    %-22s %12.1f %%\n", row.label, row.pct);
  std::printf("  %-24s %12lld\n", "DMA messages",
              static_cast<long long>(outcome.counters.dmaMessages));
  std::printf("  %-24s %12lld\n", "RMA broadcasts",
              static_cast<long long>(outcome.counters.rmaBroadcastsSent));
  std::printf("  %-24s %12lld\n", "mesh barriers",
              static_cast<long long>(outcome.counters.syncs));
  if (report.engine.ends_with("mesh"))  // the run's host work
    std::printf("  %-24s %12lld RMA copy bytes, %lld SPM bytes to re-zero\n",
                "host", static_cast<long long>(outcome.hostRmaCopyBytes),
                static_cast<long long>(outcome.hostSpmDirtyBytes));
  if (outcome.counters.faultsInjected > 0 || outcome.counters.dmaRetries > 0) {
    std::printf("  %-24s %12lld\n", "faults injected",
                static_cast<long long>(outcome.counters.faultsInjected));
    std::printf("  %-24s %12lld\n", "DMA retries",
                static_cast<long long>(outcome.counters.dmaRetries));
  }
  std::printf("\n");
}

/// The kernel's static facts, from its program: op count and SPM layout.
void printProgram(const sw::codegen::KernelProgram& program,
                  std::int64_t spmBudgetBytes) {
  const double used = static_cast<double>(program.spmBytesUsed());
  std::printf("kernel '%s' program:\n", program.name.c_str());
  std::printf("  %-24s %12zu\n", "static ops",
              sw::codegen::countOps(program.body));
  std::printf("  %-24s %9.1f KB   of %.0f KB budget (%.1f%%), %zu buffers\n",
              "SPM high-water", used / 1024.0,
              static_cast<double>(spmBudgetBytes) / 1024.0,
              sw::metrics::safePct(used, static_cast<double>(spmBudgetBytes)),
              program.buffers.size());
  for (const sw::codegen::SpmBufferDecl& buffer : program.buffers)
    std::printf("    buffer %-18s %9.1f KB\n", buffer.set.c_str(),
                static_cast<double>(buffer.totalBytes()) / 1024.0);
  std::printf("\n");
}

/// The kernel service's counts this process, from stats().
void printServiceStats(const sw::service::KernelServiceStats& stats) {
  std::printf("kernel service:\n");
  std::printf("  %-24s %12lld   (%lld memory hits, %lld shared, hit rate "
              "%.1f%%)\n",
              "requests", static_cast<long long>(stats.requests),
              static_cast<long long>(stats.memoryHits),
              static_cast<long long>(stats.shared), 100.0 * stats.hitRate());
  std::printf("  %-24s %12lld   (%lld evictions, %zu cached)\n", "compiles",
              static_cast<long long>(stats.compiles),
              static_cast<long long>(stats.evictions), stats.entries);
  if (stats.tuneSearches + stats.tuneDbHits + stats.tuneShared > 0) {
    std::printf("  %-24s %12lld   (%lld tuning-DB hits, %lld shared)\n",
                "tuner searches", static_cast<long long>(stats.tuneSearches),
                static_cast<long long>(stats.tuneDbHits),
                static_cast<long long>(stats.tuneShared));
    std::printf("  %-24s %12lld   (%lld corrupt, %lld stale, %lld stores)\n",
                "tuning-DB misses",
                static_cast<long long>(stats.tuningDb.misses),
                static_cast<long long>(stats.tuningDb.corrupt),
                static_cast<long long>(stats.tuningDb.stale),
                static_cast<long long>(stats.tuningDb.stores));
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
  const SmokeRun smoke = smokeRun(kernel, arch);
  std::printf("fault injection: %s\n", plan->describe().c_str());

  std::vector<double> baseline = smoke.c;
  sw::core::runGemmFunctional(kernel, arch, smoke.problem, smoke.a, smoke.b,
                              baseline);

  std::vector<double> faulted = smoke.c;
  sw::core::FunctionalRunConfig runConfig;
  runConfig.faultPlan = std::move(plan);
  const sw::service::KernelService::ResilientRunResult result =
      service.runResilient(kernel.options, smoke.problem, smoke.a, smoke.b,
                           faulted, runConfig);

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

/// Strict positive-integer parse for CLI arguments; returns false on any
/// non-numeric, overflowing or non-positive value.
bool parsePositive(const char* text, long* out) {
  if (text == nullptr || *text == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  if (*end != '\0' || errno == ERANGE || v <= 0) return false;
  *out = v;
  return true;
}

/// Strict positive-number parse for --soak-quota.
bool parsePositive(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (*end != '\0' || !(v > 0.0)) return false;
  *out = v;
  return true;
}

/// The parsed command line: one field per option of the table below.
struct Cli {
  struct Report {
    std::string mode;  // "", "text" or "json"
    std::string path;  // empty = stdout
  };
  std::string input, outputPrefix, tracePath, tuningDir, injectSpec,
      warmShapes, manifestPath, padMode = "auto", engine = "plan";
  Report report;
  std::vector<long> estimate, run, tune;
  long groups = 1, soakRequests = 0, jobs = 0;
  double soakQuota = 0.0;  // 0 = effectively unlimited tenant quotas
  bool noUseAsm = false, noRma = false, noHiding = false,
       dumpSchedule = false, profile = false, help = false;
};

/// Mode bits; kSelects marks an option that selects its mode.
enum : unsigned { kCompile = 1, kTune = 2, kBatch = 4, kSoak = 8,
                  kEveryMode = kCompile | kTune | kBatch | kSoak,
                  kSelects = 16 };

/// Where an option's value lands; the member's type picks how it parses.
using Field = std::variant<bool Cli::*, std::string Cli::*, long Cli::*,
                           double Cli::*, std::vector<long> Cli::*,
                           Cli::Report Cli::*>;

/// One row of the option table.
struct OptionSpec {
  const char* name;
  const char* arg;    // placeholder shown by --help; nullptr for a switch
  Field field;
  const char* wants;  // the usage error's "NAME requires <wants>"
  unsigned modes;     // the modes that use the value, plus kSelects
  const char* help;
  std::vector<std::string> choices = {};  // all a choice may take
  const char* alias = nullptr;            // a second spelling
};

const OptionSpec kOptions[] = {
    {"-o", "PREFIX", &Cli::outputPrefix, "an output prefix",
     kCompile | kTune, "output file prefix (default: kernel name)"},
    {"--no-use-asm", nullptr, &Cli::noUseAsm, nullptr, kCompile | kTune,
     "emit the naive loop nest instead of the vendor micro-kernel (Fig.13 "
     "'+asm' ablation)"},
    {"--no-rma", nullptr, &Cli::noRma, nullptr, kCompile | kTune,
     "re-fetch tiles with DMA instead of RMA broadcasts; implicitly "
     "disables latency hiding"},
    {"--no-hiding", nullptr, &Cli::noHiding, nullptr, kCompile | kTune,
     "disable the two-level software pipeline (§6)"},
    {"--dump-schedule", nullptr, &Cli::dumpSchedule, nullptr, kCompile,
     "print the schedule tree after each stage"},
    {"--estimate", "M N K [B]", &Cli::estimate, "positive integers M N K [B]",
     kCompile, "report modelled GFLOPS for the given shape; shapes past "
     "~9,223 s of simulated time are rejected"},
    {"--pad-mode", "MODE", &Cli::padMode, "auto, padded or edge",
     kCompile | kTune, "how arbitrary shapes meet the kernel's tile grid: "
     "'edge' compiles edge-tile clamps and runs on unpadded arrays, "
     "'padded' keeps the §8.1 zero-padding convention, 'auto' (default) "
     "follows the kernel", {"auto", "padded", "edge"}},
    {"--run", "M N K [B]", &Cli::run, "positive integers M N K [B]",
     kCompile, "compile-and-run the shape functionally on the mesh "
     "simulator with random data; with edge tiles the result is verified "
     "bit-for-bit against the padded reference run"},
    {"--engine", "ENGINE", &Cli::engine, "tree or plan", kCompile,
     "execution engine for --run: 'plan' (default) interprets the lowered "
     "plan, 'tree' walks the schedule tree; both give bit-identical "
     "results and simulated times", {"tree", "plan"}},
    {"--groups", "N", &Cli::groups, "a positive core-group count",
     kCompile | kTune, "shard --run/--estimate across N concurrent core "
     "groups (1..6; default 1): --run is verified bit-for-bit against one "
     "group, --estimate applies the shared-DDR contention derate and NoC "
     "hand-off costs, --tune adds N-group candidates"},
    {"--profile", nullptr, &Cli::profile, nullptr, kEveryMode,
     "print the per-stage compile breakdown, the kernel's program (static "
     "ops, SPM layout), the kernel service's counts, the failure-path "
     "metrics registry and the latency histograms; an INPUT.c compile adds "
     "the simulated-clock metrics (overlap, time attribution, counters) of "
     "--run, else --estimate, else a one-mesh-tile run"},
    {"--report", "MODE [PATH]", &Cli::report, "text or json",
     kCompile | kSoak, "emit the performance report (time attribution, "
     "roofline, top bottleneck) of --run, else --estimate, else a 1024^3 "
     "estimate; under --soak, the soak report.  PATH (not ending in .c) "
     "selects a file, default stdout", {"text", "json"}},
    {"--trace", "OUT.json", &Cli::tracePath, "an output path", kEveryMode,
     "write a Chrome trace-event file (open in https://ui.perfetto.dev): "
     "compile spans plus, for INPUT.c, per-CPE simulated-clock lanes of "
     "--run, else --estimate's stepped ops and fast-forward spans, else a "
     "one-mesh-tile run's lanes"},
    {"--tune", "M N K [B]", &Cli::tune, "positive integers M N K [B]",
     kTune | kSelects, "search the shape's schedule space (estimator "
     "ranking, then mesh validation of the top candidates), print the "
     "winner and write its sources; B > 1 tunes the batched kernel, and a "
     "repeat is served from the tuning database"},
    {"--tuning-dir", "DIR", &Cli::tuningDir, "a directory path", kTune,
     "persistent tuning database for --tune; without it nothing persists"},
    {"--inject", "SPEC", &Cli::injectSpec,
     "a fault spec (e.g. dma-drop:cpe=0:occ=1)", kCompile | kSoak,
     "run a functional mesh smoke under a deterministic fault plan with "
     "retry and graceful degradation (under --soak, chaos against verified "
     "runs); SPEC is ';'-separated kind[:cpe=N|*][:occ=N][:count=N|forever] "
     "[:seconds=X][:rate=P][:seed=N], kind one of dma-drop dma-corrupt "
     "dma-delay rma-drop rma-delay stall"},
    {"--warm", "SHAPES", &Cli::warmShapes,
     "a comma-separated list of tile shapes (e.g. 64x64x32,32x32x32)",
     kBatch | kSelects, "pre-compile a comma-separated list of tile shapes "
     "(e.g. 64x64x32,32x32x32) on the worker pool"},
    {"--serve-batch", "FILE", &Cli::manifestPath, "a manifest file",
     kBatch | kSelects, "compile every request in a manifest (one per line: "
     "tile=MxNxK strip=S batch no-asm no-rma no-hiding fuse=relu|quantize "
     "transA transB) concurrently; a malformed line fails alone, with its "
     "line number"},
    {"--soak", "N", &Cli::soakRequests, "a positive request count",
     kSoak | kSelects, "replay N synthetic requests against the admission "
     "frontend (Zipfian kernel popularity, rotating tenants, bounded "
     "priority queue, deadlines, per-tenant quotas).  Exits nonzero on any "
     "wrong-answer completion"},
    {"--soak-quota", "RATE", &Cli::soakQuota,
     "a positive tokens-per-second rate", kSoak, "per-tenant token-bucket "
     "quota for --soak (RATE tokens/s refill, burst = RATE); offered load "
     "above the rate is shed with a typed quota error"},
    {"-j", "N", &Cli::jobs, "a positive thread count", kBatch | kSoak,
     "worker threads for --warm/--serve-batch (default: hardware "
     "concurrency) and admission workers for --soak (default 4)", {},
     "--jobs"},
    {"-h", nullptr, &Cli::help, nullptr, kEveryMode,
     "show this help and exit", {}, "--help"},
};

/// A usage error: one `swcodegen:` line on stderr, exit 2.
struct UsageError {
  std::string message;
};

template <class... F>
struct Overloaded : F... {
  using F::operator()...;
};

/// "INPUT.c compile, --warm/--serve-batch": `modes` named by selector.
std::string modeNames(unsigned modes) {
  std::string out;
  for (unsigned mode = kCompile; mode <= kSoak; mode <<= 1) {
    if ((modes & mode) == 0) continue;
    if (!out.empty()) out += ", ";
    bool named = mode == kCompile;
    if (named) out += "INPUT.c compile";
    for (const OptionSpec& spec : kOptions)
      if ((spec.modes & kSelects) != 0 && (spec.modes & mode) != 0) {
        if (named) out += '/';
        out += spec.name;
        named = true;
      }
  }
  return out;
}

/// Parses argv into `cli` and returns its one mode (0 if none), checking
/// every value and option against the table; stops at -h.
unsigned parseCommandLine(int argc, char** argv, Cli& cli) {
  std::vector<std::pair<const OptionSpec*, std::string>> given;
  unsigned mode = 0;
  std::string selectedBy;
  const auto select = [&](unsigned wanted, const std::string& by) {
    if (mode != 0 && mode != wanted)
      throw UsageError{by + " selects the " + modeNames(wanted) +
                       " mode, but " + selectedBy + " selected the " +
                       modeNames(mode) + " mode; give one per invocation"};
    mode = wanted;
    selectedBy = by;
  };
  for (int i = 1; i < argc && !cli.help; ++i) {
    const std::string arg = argv[i];
    if (!arg.empty() && arg[0] != '-') {
      if (!cli.input.empty())
        throw UsageError{"unexpected extra argument '" + arg +
                         "' (input is already '" + cli.input +
                         "'; try 'swcodegen --help')"};
      cli.input = arg;
      select(kCompile, "'" + arg + "'");
      continue;
    }
    const OptionSpec* spec = nullptr;
    for (const OptionSpec& o : kOptions)
      if (arg == o.name || (o.alias != nullptr && arg == o.alias)) spec = &o;
    if (spec == nullptr)
      throw UsageError{"unknown option '" + arg +
                       "' (try 'swcodegen --help')"};
    const auto needs = [&] { return arg + " requires " + spec->wants; };
    const auto bad = [&](const std::string& value) {
      return UsageError{needs() + ", got '" + value + "'"};
    };
    const auto value = [&] {
      if (i + 1 >= argc) throw UsageError{needs()};
      const std::string v = argv[++i];
      if (!spec->choices.empty() &&
          std::find(spec->choices.begin(), spec->choices.end(), v) ==
              spec->choices.end())
        throw UsageError{"unknown " + arg + " '" + v + "' (want " +
                         spec->wants + ")"};
      return v;
    };
    const Overloaded parseValue{
        [&](bool Cli::*f) { cli.*f = true; },
        [&](std::string Cli::*f) { cli.*f = value(); },
        [&](auto Cli::*f) {  // a positive count or rate
          if (!parsePositive(value().c_str(), &(cli.*f))) throw bad(argv[i]);
        },
        [&](std::vector<long> Cli::*f) {
          // M N K, then B if the next token is a positive integer.
          (cli.*f).clear();
          for (long v = 0; (cli.*f).size() < 4 && i + 1 < argc &&
                           parsePositive(argv[i + 1], &v);
               ++i)
            (cli.*f).push_back(v);
          if ((cli.*f).size() < 3)
            throw i + 1 < argc ? bad(argv[i + 1]) : UsageError{needs()};
        },
        [&](Cli::Report Cli::*f) {
          (cli.*f).mode = value();
          // An optional output path follows; the INPUT.c positional may sit
          // there too, so a token ending in .c is left for it.
          if (i + 1 < argc && argv[i + 1][0] != '-' &&
              !std::string_view(argv[i + 1]).ends_with(".c"))
            (cli.*f).path = argv[++i];
        },
    };
    std::visit(parseValue, spec->field);
    given.emplace_back(spec, arg);
    if ((spec->modes & kSelects) != 0) select(spec->modes & kEveryMode, arg);
  }
  if (mode != 0 && !cli.help)
    for (const auto& [spec, as] : given)
      if ((spec->modes & mode) == 0)
        throw UsageError{as + " does not apply to the " + modeNames(mode) +
                         " mode, only to " + modeNames(spec->modes)};
  return mode;
}

/// --help from the option table: mode synopses, then each option.
void printHelp(std::FILE* out) {
  std::string text;
  for (unsigned mode = kCompile; mode <= kSoak; mode <<= 1) {
    std::string synopsis = mode == kCompile ? " INPUT.c" : "";
    for (const OptionSpec& spec : kOptions)
      if ((spec.modes & kSelects) != 0 && (spec.modes & mode) != 0)
        synopsis += (synopsis.empty() ? " " : " | ") +
                    (spec.name + (" " + std::string(spec.arg)));
    text += (text.empty() ? "usage: swcodegen" : "       swcodegen") +
            synopsis + " [options]\n";
  }
  text += "\nCompile a naive C GEMM into SW26010Pro athread sources, tune a "
          "shape's\nschedule, warm the kernel cache or soak the admission "
          "frontend.  An\noption outside its mode is a usage error.\n"
          "\noptions:\n";
  for (const OptionSpec& spec : kOptions) {
    std::string line = std::string("  ") + spec.name +
                       (spec.alias ? std::string(", ") + spec.alias : "") +
                       (spec.arg ? std::string(" ") + spec.arg : "");
    // Help runs from column 21 to 79; a long head gets a line of its own.
    if (line.size() > 20) text += std::exchange(line, "") + "\n";
    line.resize(20, ' ');
    std::istringstream words(spec.help);
    for (std::string word; words >> word; line += " " + word)
      if (line.size() + 1 + word.size() > 79)
        text += std::exchange(line, std::string(20, ' ')) + "\n";
    text += line + "\n" + std::string(21, ' ') + "applies to: " +
            ((spec.modes & kEveryMode) == kEveryMode ? "every mode"
                                                     : modeNames(spec.modes)) +
            "\n";
  }
  text +=
      "\nenvironment:\n"
      "  SWCODEGEN_LOG         debug|info|warn — structured log threshold\n"
      "  SWCODEGEN_TRACE       path — enable tracing and write there on exit\n"
      "  SWCODEGEN_TUNING_DIR  default for --tuning-dir\n";
  std::fputs(text.c_str(), out);
}

/// The compile options the schedule flags ask for.
sw::core::CodegenOptions codegenOptions(const Cli& cli) {
  sw::core::CodegenOptions options;
  options.useAsm = !cli.noUseAsm;
  if (cli.noRma) options.useRma = false;
  if (cli.noRma || cli.noHiding) options.hideLatency = false;
  if (cli.padMode != "auto") options.edgeTiles = cli.padMode == "edge";
  // --tune has no INPUT.c to detect a batched GEMM from: a batch count
  // above 1 asks for the batched kernel.
  if (cli.tune.size() == 4 && cli.tune[3] > 1) options.batched = true;
  return options;
}

/// What a mode leaves for the epilogue: its exit code, the kernel and run
/// blocks --profile prints, and the renderer of its --report body.
struct ModeOutcome {
  int rc = 0;
  struct Run {
    std::string title;
    sw::rt::RunOutcome outcome;
  };
  std::vector<Run> runs;
  std::function<std::string(bool json)> report;
  /// The one kernel the mode compiled or tuned; none for batch modes.
  std::optional<sw::codegen::KernelProgram> program = std::nullopt;
};

/// INPUT.c compile: compile through the kernel service (so its stats and
/// histogram cover the CLI too), write the sources, then estimate, run
/// and inject as asked.
ModeOutcome runCompileMode(
    sw::service::KernelService& service, const Cli& cli,
    const std::string& source,
    std::shared_ptr<const sw::sunway::FaultPlan> faultPlan) {
  const sw::sunway::ArchConfig& arch = service.arch();
  const sw::core::CompiledKernel kernel =
      service.compileSource(source, codegenOptions(cli));
  if (cli.dumpSchedule) {
    const sw::core::ScheduleTreeDumps dumps =
        sw::core::dumpScheduleTrees(kernel.options, arch);
    std::printf("--- initial schedule tree ---\n%s\n"
                "--- after compute decomposition ---\n%s\n"
                "--- final schedule tree ---\n%s\n",
                dumps.initialTree.c_str(), dumps.tiledTree.c_str(),
                dumps.finalTree.c_str());
  }
  const bool fused = kernel.options.fusion != sw::core::FusionKind::kNone;
  writeSources(kernel, cli.outputPrefix,
               std::string(kernel.options.batched ? ", batched" : "") +
                   (fused ? ", fused" : ""));

  ModeOutcome result;
  result.program = kernel.program;
  const bool sharded = cli.groups > 1;
  std::optional<sw::perf::PerfReport> reported;
  if (!cli.estimate.empty()) {
    const sw::core::GemmProblem problem = problemOf(cli.estimate);
    sw::core::ShardedOutcome shard;
    sw::rt::RunOutcome estimated;
    if (sharded) {
      sw::core::ShardedConfig config;
      config.groups = static_cast<int>(cli.groups);
      shard = sw::core::estimateSharded(kernel, arch, config, problem);
      estimated = asRunOutcome(shard);
    } else {
      estimated = sw::core::estimateGemm(kernel, arch, problem);
    }
    std::printf("estimated %ldx%ldx%ld%s", cli.estimate[0], cli.estimate[1],
                cli.estimate[2],
                cli.estimate.size() == 4
                    ? (" batch " + std::to_string(problem.batch)).c_str()
                    : "");
    if (sharded)
      std::printf(" on %d core groups: %.2f GFLOPS (%.1f%% of the %d-group "
                  "peak, DDR derate %.2f), %.3f ms\n",
                  shard.concurrentGroups, shard.gflops,
                  100.0 * shard.gflops /
                      (shard.concurrentGroups * arch.peakFlops() / 1e9),
                  shard.concurrentGroups, shard.contentionDerate,
                  shard.seconds * 1e3);
    else
      std::printf(": %.2f GFLOPS (%.1f%% of model peak), %.3f ms\n",
                  estimated.gflops,
                  100.0 * estimated.gflops / (arch.peakFlops() / 1e9),
                  estimated.seconds * 1e3);
    reported = estimated.report;
    result.runs.push_back(
        {"estimated run metrics (symmetric model)", estimated});
  }

  if (!cli.run.empty()) {
    sw::core::FunctionalRunConfig runConfig;
    runConfig.padMode = cli.padMode == "edge"     ? sw::core::PadMode::kEdge
                        : cli.padMode == "padded" ? sw::core::PadMode::kPadded
                                                  : sw::core::PadMode::kAuto;
    if (cli.engine == "tree") runConfig.engine = sw::rt::ExecEngine::kTreeWalk;
    sw::rt::RunOutcome ran;
    result.rc = runShapeSmoke(kernel, arch, problemOf(cli.run), runConfig,
                              cli.groups, ran);
    reported = ran.report;
    const std::string where =
        sharded ? std::to_string(cli.groups) + " core groups, sharded"
                : "one core group, 64 CPEs";
    result.runs.push_back({"functional mesh run " + shapeText(cli.run) +
                               " (" + where + ")",
                           ran});
  }

  // --profile and --trace describe the requested run or estimate.  With
  // neither, a one-mesh-tile side run lights up the 64 per-CPE trace
  // lanes and the mesh-run metrics instead.
  if ((!cli.tracePath.empty() || cli.profile) && !faultPlan &&
      cli.run.empty() && cli.estimate.empty()) {
    SmokeRun smoke = smokeRun(kernel, arch);
    result.runs.push_back(
        {"functional mesh smoke run (one mesh tile, 64 CPEs)",
         sw::core::runGemmFunctional(kernel, arch, smoke.problem, smoke.a,
                                     smoke.b, smoke.c)});
  }

  if (faultPlan) {
    const int chaosRc = runChaosSmoke(service, kernel, arch, faultPlan);
    if (chaosRc != 0) result.rc = chaosRc;
  }

  // --report describes the most faithful run available: a functional mesh
  // run beats an estimate beats a default-shape estimate, made on demand.
  if (!cli.report.mode.empty())
    result.report = [reported, kernel, &service](bool json) {
      const sw::perf::PerfReport report =
          reported ? *reported
                   : sw::core::estimateGemm(
                         kernel, service.arch(),
                         {1024, 1024, 1024, kernel.options.batched ? 2 : 1})
                         .report;
      return json ? report.toJson() + "\n" : report.toText();
    };
  return result;
}

/// --tune: resolve the best schedule for a problem shape through the
/// service's tuner (tuning-DB consult, two-stage search on a miss), print
/// the decision with a machine-greppable `schedule source:` line, and
/// write the winner's athread sources.
ModeOutcome runTuneMode(sw::service::KernelService& service, const Cli& cli) {
  const sw::core::CodegenOptions base = codegenOptions(cli);
  const sw::core::GemmProblem problem = problemOf(cli.tune);
  std::printf("tuning %s over the schedule space\n",
              shapeText(cli.tune).c_str());

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
  using Source = sw::service::KernelService::ResolvedSchedule::Source;
  if (resolved.source == Source::kSearch)
    std::printf("schedule source: search%s%s\n",
                dbPath.empty() ? " (no tuning dir, decision not persisted)"
                               : ", stored in ",
                dbPath.c_str());
  else if (resolved.source == Source::kDiskHit)
    std::printf("schedule source: tuning-db (disk hit, search not re-run: "
                "%s)\n", dbPath.c_str());
  else
    std::printf("schedule source: shared in-flight search\n");

  sw::service::ServeOutcome outcome = sw::service::ServeOutcome::kCompiled;
  const sw::service::KernelService::KernelPtr kernel =
      service.compile(resolved.options, &outcome);
  writeSources(*kernel, cli.outputPrefix,
               std::string(", served via ") + sw::service::toString(outcome));
  ModeOutcome result;
  result.program = kernel->program;
  return result;
}

/// --warm / --serve-batch: compile every request on the service's pool and
/// print the per-request serving report; failed requests are listed
/// individually and make the exit code nonzero.
ModeOutcome runBatchMode(sw::service::KernelService& service,
                         const Cli& cli) {
  const double start = sw::trace::Tracer::global().nowMicros();
  std::vector<sw::service::KernelService::BatchResult> results;
  if (!cli.warmShapes.empty())
    results =
        service.compileBatch(sw::service::parseWarmShapes(cli.warmShapes));
  if (!cli.manifestPath.empty()) {
    // compileManifest keeps malformed lines in the batch as per-line
    // failures (error = "manifest line <N>: ...") instead of aborting
    // the valid requests around them.
    std::vector<sw::service::KernelService::BatchResult> manifest =
        service.compileManifest(readFile(cli.manifestPath));
    if (manifest.empty())
      throw sw::InputError("batch manifest '" + cli.manifestPath +
                           "' contains no requests");
    for (auto& r : manifest) results.push_back(std::move(r));
  }
  const double wallMs =
      (sw::trace::Tracer::global().nowMicros() - start) / 1e3;

  std::printf("%-4s %-16s %-12s %10s  %s\n", "#", "tile", "outcome",
              "ms", "key");
  int failures = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const sw::service::KernelService::BatchResult& r = results[i];
    const std::string tile = std::to_string(r.options.tileM) + "x" +
                             std::to_string(r.options.tileN) + "x" +
                             std::to_string(r.options.tileK);
    const std::string key = sw::core::canonicalRequestKey(
        r.options, service.arch());
    if (r.error.empty()) {
      std::printf("%-4zu %-16s %-12s %10.3f  %s\n", i, tile.c_str(),
                  sw::service::toString(r.outcome), r.latencySeconds * 1e3,
                  sw::digestHex(sw::fnv1a64(key)).c_str());
    } else {
      ++failures;
      std::printf("%-4zu %-16s %-12s %10s  error: %s\n", i, tile.c_str(),
                  "failed", "-", r.error.c_str());
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
  return {failures == 0 ? 0 : 1, {}, nullptr};
}

/// --soak: replay synthetic traffic against the admission frontend and
/// print the soak report, with --inject as chaos against periodically
/// verified mesh runs.  Exits nonzero only when a verified run produced a
/// wrong answer — shedding under overload is the expected behaviour.
ModeOutcome runSoakMode(sw::service::KernelService& service, const Cli& cli,
                        std::shared_ptr<const sw::sunway::FaultPlan> plan) {
  sw::service::SoakConfig config;
  config.requests = cli.soakRequests;
  config.clientThreads = 4;
  config.clientWindow = 64;
  config.deadlineSeconds = 0.25;
  if (plan != nullptr) {
    config.chaosPlan = std::move(plan);
    config.verifyEvery = 500;
  }
  config.admission.maxQueueDepth = 128;
  config.admission.workers = cli.jobs > 0 ? static_cast<int>(cli.jobs) : 4;
  if (cli.soakQuota > 0.0)
    for (const std::string& tenant : config.tenants)
      config.admission.tenantQuotas[tenant] =
          sw::service::TenantQuota{cli.soakQuota, cli.soakQuota};

  std::printf("soaking the admission frontend: %ld requests, %d workers, "
              "queue depth %lld, deadline %.0f ms%s%s\n",
              cli.soakRequests, config.admission.workers,
              static_cast<long long>(config.admission.maxQueueDepth),
              config.deadlineSeconds * 1e3,
              cli.soakQuota > 0.0 ? ", per-tenant quota" : "",
              config.chaosPlan != nullptr ? ", chaos active" : "");
  const sw::service::SoakReport report = sw::service::runSoak(service, config);
  // --report text to stdout prints this same text in the epilogue.
  if (cli.report.mode != "text" || !cli.report.path.empty())
    std::printf("%s", report.toText().c_str());

  ModeOutcome result;
  result.report = [report](bool json) {
    return json ? report.toJson() : report.toText();
  };
  if (report.wrongAnswers > 0) {
    std::fprintf(stderr,
                 "soak: result=WRONG-ANSWERS — %lld verified completions "
                 "diverged from their fault-free baseline\n",
                 static_cast<long long>(report.wrongAnswers));
    result.rc = 1;
    return result;
  }
  std::printf("soak: result=ok shed=%lld wrong=0\n",
              static_cast<long long>(report.shed.total()));
  return result;
}

/// The epilogue of every mode: --profile, then --report, then the trace.
/// Returns the mode's exit code.
int finish(const Cli& cli, const sw::service::KernelService& service,
           const ModeOutcome& outcome) {
  if (cli.profile) {
    std::printf("\n");
    printStageBreakdown();
    if (outcome.program)
      printProgram(*outcome.program, service.arch().spmBytes);
    for (const ModeOutcome::Run& run : outcome.runs)
      printRunMetrics(run.title, run.outcome);
    printServiceStats(service.stats());
    const std::map<std::string, double> events =
        sw::metrics::MetricsRegistry::global().snapshot();
    if (events.empty())
      std::printf("metrics registry: no failure-path events\n");
    else
      std::printf("metrics registry: failure-path events\n%s",
                  sw::metrics::formatMetricsTable(events).c_str());
    const std::map<std::string, sw::metrics::Histogram> histograms =
        sw::metrics::HistogramRegistry::global().snapshot();
    if (!histograms.empty())
      std::printf("\nlatency histograms:\n%s",
                  sw::metrics::formatHistogramTable(histograms, "ms").c_str());
    std::printf("\n");
  }

  if (!cli.report.mode.empty()) {
    const std::string body = outcome.report(cli.report.mode == "json");
    if (cli.report.path.empty()) {
      std::printf("%s", body.c_str());
    } else {
      writeFile(cli.report.path, body);
      std::printf("wrote %s report to %s\n", cli.report.mode.c_str(),
                  cli.report.path.c_str());
    }
  }

  // SWCODEGEN_TRACE=path enables collection library-wide; honour it as the
  // output location when --trace was not given.
  std::string tracePath = cli.tracePath;
  const char* env = std::getenv("SWCODEGEN_TRACE");
  if (tracePath.empty() && env != nullptr) tracePath = env;
  if (!tracePath.empty()) {
    sw::trace::Tracer::global().writeFile(tracePath);
    std::printf("wrote trace to %s (%zu events; open in "
                "https://ui.perfetto.dev)\n",
                tracePath.c_str(), sw::trace::Tracer::global().eventCount());
  }
  return outcome.rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    Cli cli;
    const unsigned mode = parseCommandLine(argc, argv, cli);
    if (cli.help || mode == 0) {
      printHelp(cli.help ? stdout : stderr);
      return cli.help ? 0 : 2;
    }
    const char* envDir = std::getenv("SWCODEGEN_TUNING_DIR");
    if (cli.tuningDir.empty() && envDir != nullptr) cli.tuningDir = envDir;

    // Bad invocations exit 2 before any compilation work: an unparsable
    // fault plan or an unreadable input file.
    std::shared_ptr<const sw::sunway::FaultPlan> faultPlan;
    if (!cli.injectSpec.empty())
      faultPlan = std::make_shared<const sw::sunway::FaultPlan>(
          sw::sunway::FaultPlan::parse(cli.injectSpec));
    const std::string source = mode == kCompile ? readFile(cli.input) : "";

    // The CLI surfaces warnings by default; an explicit $SWCODEGEN_LOG
    // still selects the threshold (including a quieter one).
    if (!sw::logLevelFromEnv()) sw::setLogLevel(sw::LogLevel::kWarn);
    if (cli.noRma && !cli.noHiding)
      SW_WARN("cli",
              "event=implicit_option msg=\"--no-rma implicitly disables "
              "memory latency hiding: the two-level pipeline of §6 "
              "requires the RMA decomposition (pass --no-hiding to "
              "silence this)\"");
    if (!cli.tracePath.empty() || cli.profile)
      sw::trace::Tracer::global().enable();

    sw::service::KernelServiceConfig serviceConfig;
    serviceConfig.tuningDir = cli.tuningDir;
    serviceConfig.threads = static_cast<int>(cli.jobs);
    if (cli.groups > 1)
      // Widen the schedule search with N-group sharded candidates (scored
      // through the contention-derated estimator); {1} stays in so the
      // single-group default can still win.
      serviceConfig.tuner.space.shardedGroups = {1,
                                                 static_cast<int>(cli.groups)};
    sw::service::KernelService service(sw::sunway::ArchConfig{},
                                       serviceConfig);
    const ModeOutcome outcome =
        mode == kCompile ? runCompileMode(service, cli, source, faultPlan)
        : mode == kTune  ? runTuneMode(service, cli)
        : mode == kBatch ? runBatchMode(service, cli)
                         : runSoakMode(service, cli, faultPlan);
    return finish(cli, service, outcome);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "swcodegen: %s\n", e.message.c_str());
    return 2;
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
