// paper_sweep: cold-compile the paper's kernels and estimate them over the
// §8 shapes, on one closed-loop client thread.
//
// Host time here goes to the frontend, the pipeline, the printer, plan
// lowering, the estimator and the tuner (searched at the program's
// checkpoints); simulated time goes to the generated schedule.  The only
// functional mesh runs are the tuner's top-3 validations, so a mesh change
// should move nothing here but tune_s, while a schedule change shows up
// first in sim_gflops_*.
//
// Set-up compiles every kernel and estimates every request once: the
// oracle's digests and reference GFLOPS, and the sim_gflops set.  One
// window is one pass: compile every kernel cold, estimate every (kernel,
// shape) request in a seed-shuffled order, estimate the sharded shapes.
// A run makes round(seconds / 1.5 s) passes; a request is one estimate
// call, and the stream clock runs only while requests do.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <random>

#include "bench.h"
#include "codegen/athread_printer.h"
#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "core/pipeline.h"
#include "core/sharded_gemm.h"
#include "frontend/pattern.h"
#include "runtime/executor.h"
#include "runtime/plan.h"
#include "support/digest.h"

namespace perfbench {
namespace {

using sw::core::CodegenOptions;
using sw::core::CompiledKernel;
using sw::core::FusionKind;
using sw::core::GemmProblem;

struct PaperKernel {
  std::string name;
  std::string source;  // naive C input; empty compiles from `options`
  CodegenOptions options;
  /// Full-optimisation kernels form the sim_gflops set; the lower rungs
  /// of the Fig. 13 ladder and the edge variants are ablations.
  bool inSimSet = true;
};

struct EstimateRequest {
  std::size_t kernel = 0;
  GemmProblem problem;
  bool inSimSet = false;
};

CodegenOptions ladderRung(bool useAsm, bool useRma, bool hideLatency) {
  CodegenOptions options;
  options.useAsm = useAsm;
  options.useRma = useRma;
  options.hideLatency = hideLatency;
  return options;
}

CodegenOptions edgeVariant(std::int64_t tileM, std::int64_t tileN,
                           std::int64_t tileK) {
  CodegenOptions options;
  options.edgeTiles = true;
  options.tileM = tileM;
  options.tileN = tileN;
  options.tileK = tileK;
  return options;
}

bool attributionOk(const sw::perf::PerfReport& report) {
  return std::fabs(report.attribution.sum() - 100.0) <= 0.1;
}

bool gflopsOk(double gflops, double peak) {
  return std::isfinite(gflops) && gflops > 0.0 && gflops <= peak;
}

class PaperSweep : public Workload {
 public:
  explicit PaperSweep(const RunOptions& options) : options_(options) {
    const std::string dir = options.root + "/perfbench/sources/";
    kernels_ = {
        {"gemm", readFile(options.root + "/examples/quickstart_gemm.c"), {}},
        {"bgemm", readFile(dir + "batched.c"), {}},
        {"gemm_tt", readFile(dir + "transposed.c"), {}},
        {"qgemm", readFile(dir + "quantize.c"), {}},
        {"gemm_relu", readFile(dir + "relu.c"), {}},
        {"baseline(DMA)", "", ladderRung(false, false, false), false},
        {"+asm", "", ladderRung(true, false, false), false},
        {"+RMA", "", ladderRung(true, true, false), false},
        {"+hiding", "", ladderRung(true, true, true)},
        {"edge64x64x32", "", edgeVariant(64, 64, 32), false},
        {"edge16x16x16", "", edgeVariant(16, 16, 16), false},
        {"edge32x16x16", "", edgeVariant(32, 16, 16), false},
    };
    const auto add = [this](std::size_t kernel, GemmProblem problem) {
      requests_.push_back({kernel, problem, kernels_[kernel].inSimSet});
    };
    // Fig. 13: the four-rung ladder on the squares.  The top rung at 1024^3
    // is the trajectory's Fig13__hiding_1024x1024x1024 case.
    for (const std::int64_t d : {1024, 1536, 2048, 2560, 3072, 3584, 4096,
                                 5120, 6144, 7168, 7680, 8192, 10240, 15360}) {
      for (const std::size_t rung : {5, 6, 7}) add(rung, {d, d, d, 1});
      if (d == 1024) defaultAt1024_ = requests_.size();
      add(kDefaultRung, {d, d, d, 1});
    }
    // Fig. 14: the 36 non-square shapes, from the quickstart source.
    for (const std::int64_t m : {2048, 4096, 8192})
      for (const std::int64_t n : {4096, 8192, 16384})
        for (const std::int64_t k : {4096, 8192, 15360, 16384})
          add(0, {m, n, k, 1});
    // Fig. 15: batched shapes x batch sizes.
    for (const std::int64_t batch : {2, 4, 8, 16})
      for (const GemmProblem& s :
           {GemmProblem{1024, 1024, 2048}, GemmProblem{2048, 2048, 6144},
            GemmProblem{2048, 2048, 8192}, GemmProblem{8192, 8192, 12288},
            GemmProblem{4096, 4096, 15360}, GemmProblem{4096, 4096, 16384}})
        add(1, {s.m, s.n, s.k, batch});
    // Fig. 16: prologue and epilogue fusion shapes.
    for (const GemmProblem& s :
         {GemmProblem{2048, 8192, 4096}, GemmProblem{4096, 8192, 4096},
          GemmProblem{4096, 16384, 4096}, GemmProblem{4096, 16384, 8192},
          GemmProblem{8192, 16384, 8192}, GemmProblem{8192, 8192, 4096},
          GemmProblem{10752, 10752, 10752}, GemmProblem{4096, 16384, 16384}})
      for (const std::size_t fused : {3, 4}) add(fused, {s.m, s.n, s.k, 1});
    // Transposed operands on a few squares.
    for (const std::int64_t d : {1024, 2048, 4096, 8192}) add(2, {d, d, d, 1});
    // Overlap ablation: latency hiding on (in the sim set) and off.
    for (const std::int64_t k : {256, 512, 1024, 2048, 4096, 8192, 16384}) {
      add(kDefaultRung, {4096, 4096, k, 1});
      add(7, {4096, 4096, k, 1});
    }
    // Edge-tile variants on shapes no tile grid divides.
    for (const std::size_t edge : {9, 10, 11})
      for (const GemmProblem& s :
           {GemmProblem{100, 100, 100}, GemmProblem{257, 63, 65},
            GemmProblem{1000, 1000, 1000}, GemmProblem{1023, 1025, 1000},
            GemmProblem{4095, 4097, 4099}})
        add(edge, {s.m, s.n, s.k, 1});
    sharded_ = {{12288, 8192, 8192, 1}, {8192, 8192, 8192, 1},
                {16384, 16384, 8192, 1}};
  }

  void setup(WorkloadResult& result) override {
    // Oracle digests: every later cold compile of a kernel must print
    // byte-identical sources.
    digests_.clear();
    std::vector<CompiledKernel> compiled(kernels_.size());
    staticOps_ = sourceBytes_ = instructions_ = 0;
    CpuRotation rotation;
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
      rotation.next();
      try {
        const double start = nowSeconds();
        compiled[i] = compileDirect(kernels_[i]);
        result.compileMs.add((nowSeconds() - start) * 1e3);
      } catch (const std::exception& e) {
        result.fail(&result.threw, kernels_[i].name + ": " + e.what());
      }
      digests_.push_back(digestOf(compiled[i]));
      if (compiled[i].plan == nullptr) continue;
      staticOps_ += static_cast<std::int64_t>(
          sw::codegen::countOps(compiled[i].program.body));
      sourceBytes_ += static_cast<std::int64_t>(compiled[i].cpeSource.size());
      instructions_ += static_cast<std::int64_t>(compiled[i].plan->code.size());
    }
    const sw::sunway::ArchConfig& arch = compiler_.arch();
    peakGflops_ = sw::rt::machineModelFromArch(arch).peakGflops;
    shardedPeakGflops_ = sw::rt::machineModelFromArch(arch, kGroups).peakGflops;
    // Reference GFLOPS: every request estimated once.  The logical clocks
    // are deterministic, so every pass must repeat them exactly.
    referenceGflops_.assign(requests_.size(), 0.0);
    result.simGflops.clear();
    for (std::size_t index = 0; index < requests_.size(); ++index) {
      const EstimateRequest& request = requests_[index];
      if (compiled[request.kernel].plan == nullptr) continue;
      rotation.next();
      try {
        const sw::rt::RunOutcome outcome = sw::core::estimateGemm(
            compiled[request.kernel], arch, request.problem);
        if (!gflopsOk(outcome.gflops, peakGflops_) ||
            !attributionOk(outcome.report))
          result.fail(&result.wrong, "estimate out of range");
        referenceGflops_[index] = outcome.gflops;
        if (request.inSimSet) result.simGflops.push_back(outcome.gflops);
        if (index == defaultAt1024_ && result.notes.empty()) {
          char line[160];
          std::snprintf(line, sizeof(line),
                        "default kernel (+hiding) at 1024x1024x1024: %.5f "
                        "GFLOPS [sim] (trajectory case "
                        "Fig13__hiding_1024x1024x1024)",
                        outcome.gflops);
          result.notes.emplace_back(line);
        }
      } catch (const std::exception& e) {
        result.fail(&result.threw, std::string("estimate: ") + e.what());
      }
    }
  }

  int windows(double seconds) const override {
    return std::max(1, static_cast<int>(std::lround(seconds / kPassSeconds)));
  }

  /// One pass, whatever the budget: the heaviest estimates are one request
  /// each per pass, so p99 rests on the same (kernel, shape) only when
  /// every run makes as many passes.
  void window(double /*seconds*/, std::int64_t /*maxRequests*/,
              Tracer* tracer, WorkloadResult& result) override {
    runPass(tracer, result);
  }

  void finishTrace(Tracer& tracer, WorkloadResult& result) override {
    fillLayers(tracer, result);
    totals_ = LayerTotals{};
  }

  std::int64_t companionRequests() const override { return 1; }  // one pass

 private:
  static constexpr int kGroups = 6;
  /// The ladder's top rung: the paper's default schedule.
  static constexpr std::size_t kDefaultRung = 8;
  /// Sizes the run.  A pass takes about 1 s on a 4-vCPU x86 host, so
  /// round(seconds / 1.5 s) passes make a run about as long as the other
  /// workloads' once the checkpoints are counted.
  static constexpr double kPassSeconds = 1.5;

  /// Accumulators the traced run turns into per-layer metrics.
  struct LayerTotals {
    double estimateHostSeconds = 0.0;
    double estimateSimOps = 0.0;
    Samples attrDma, attrRma, attrSync, attrCompute, flopsPerByte;
    Samples shardCommPct;
  };

  static std::uint64_t digestOf(const CompiledKernel& kernel) {
    return sw::fnv1a64(kernel.cpeSource) ^
           (sw::fnv1a64(kernel.mpeSource) * 0x9e3779b97f4a7c15ull);
  }

  CompiledKernel compileDirect(const PaperKernel& kernel) const {
    return kernel.source.empty()
               ? compiler_.compile(kernel.options)
               : compiler_.compileSource(kernel.source, kernel.options);
  }

  /// The traced compile calls each layer's public function in turn, so
  /// every layer gets its own span: frontend, pipeline, printer, lowering.
  /// It prints the sources once, under the source's function name (the
  /// library's compileSource prints a second time after renaming).
  CompiledKernel compileTraced(const PaperKernel& kernel, Tracer* tracer) const {
    const Tracer::Scope span(tracer, "compile");
    CodegenOptions options = kernel.options;
    std::string name;
    if (!kernel.source.empty()) {
      sw::frontend::GemmPatternInfo pattern;
      {
        const Tracer::Scope parse(tracer, "frontend.parse");
        pattern = sw::frontend::analyzeGemmSource(kernel.source);
      }
      options.batched = pattern.batched;
      options.transposeA = pattern.transposeA;
      options.transposeB = pattern.transposeB;
      options.fusion =
          pattern.fusion == sw::frontend::FusionPattern::kPrologueQuantize
              ? FusionKind::kPrologueQuantize
          : pattern.fusion == sw::frontend::FusionPattern::kEpilogueRelu
              ? FusionKind::kEpilogueRelu
              : FusionKind::kNone;
      name = pattern.functionName;
    }
    sw::core::PipelineResult pipeline;
    {
      const Tracer::Scope run(tracer, "pipeline");
      pipeline = sw::core::runGemmPipeline(options, compiler_.arch());
    }
    CompiledKernel compiled;
    compiled.options = options;
    compiled.program = std::move(pipeline.program);
    if (!name.empty()) compiled.program.name = name;
    {
      const Tracer::Scope print(tracer, "codegen.print");
      sw::codegen::GeneratedSources sources =
          sw::codegen::printAthreadSources(compiled.program);
      compiled.cpeSource = std::move(sources.cpe);
      compiled.mpeSource = std::move(sources.mpe);
    }
    {
      const Tracer::Scope lower(tracer, "plan.lower");
      compiled.plan = sw::rt::lowerToPlan(compiled.program);
    }
    return compiled;
  }

  /// Everything in a pass runs on this thread, so it rotates over the CPUs.
  void runPass(Tracer* tracer, WorkloadResult& result) {
    const sw::sunway::ArchConfig& arch = compiler_.arch();
    CpuRotation rotation;
    std::vector<CompiledKernel> compiled(kernels_.size());
    for (std::size_t i = 0; i < kernels_.size(); ++i) {
      rotation.next();
      try {
        const double start = nowSeconds();
        compiled[i] = tracer != nullptr ? compileTraced(kernels_[i], tracer)
                                        : compileDirect(kernels_[i]);
        result.compileMs.add((nowSeconds() - start) * 1e3);
        if (digestOf(compiled[i]) != digests_[i])
          result.fail(&result.wrong,
                      "recompiled sources differ: " + kernels_[i].name);
      } catch (const std::exception& e) {
        result.fail(&result.threw, kernels_[i].name + ": " + e.what());
      }
    }

    const double requestsStart = nowSeconds();
    std::vector<std::size_t> order(requests_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng_);
    for (const std::size_t index : order) {
      const EstimateRequest& request = requests_[index];
      ++result.attempted;
      ++issued_;
      rotation.next();
      if (compiled[request.kernel].plan == nullptr) {
        result.fail(&result.threw, "kernel did not compile");
        continue;
      }
      try {
        sw::rt::RunOutcome outcome;
        const double start = nowSeconds();
        {
          const Tracer::Scope span(tracer, "estimate", issued_);
          outcome = sw::core::estimateGemm(compiled[request.kernel], arch,
                                           request.problem);
        }
        const double elapsed = nowSeconds() - start;
        result.latencyMs.add(elapsed * 1e3);
        checkEstimate(outcome, index, result);
        if (tracer == nullptr) continue;
        if (request.inSimSet) {
          const auto& attribution = outcome.report.attribution;
          totals_.attrDma.add(attribution.exposedDmaPct);
          totals_.attrRma.add(attribution.exposedRmaPct);
          totals_.attrSync.add(attribution.syncPct);
          totals_.attrCompute.add(attribution.computePct);
          totals_.flopsPerByte.add(outcome.report.roofline.arithmeticIntensity);
        }
        const auto& c = outcome.counters;
        totals_.estimateHostSeconds += elapsed;
        totals_.estimateSimOps += static_cast<double>(
            c.dmaMessages + c.rmaBroadcastsSent + c.syncs + c.microKernelCalls);
      } catch (const std::exception& e) {
        result.fail(&result.threw, std::string("estimate: ") + e.what());
      }
    }

    sw::core::ShardedConfig sharded;
    sharded.groups = kGroups;
    for (const GemmProblem& problem : sharded_) {
      ++result.attempted;
      ++issued_;
      rotation.next();
      try {
        sw::core::ShardedOutcome outcome;
        const double start = nowSeconds();
        {
          const Tracer::Scope span(tracer, "estimate.sharded", issued_);
          outcome = sw::core::estimateSharded(compiled[0], arch, sharded,
                                              problem);
        }
        result.latencyMs.add((nowSeconds() - start) * 1e3);
        if (!gflopsOk(outcome.gflops, shardedPeakGflops_) ||
            !attributionOk(outcome.report))
          result.fail(&result.wrong, "sharded estimate out of range");
        if (tracer != nullptr && outcome.seconds > 0.0)
          totals_.shardCommPct.add(100.0 * outcome.communicationSeconds /
                                   outcome.seconds);
      } catch (const std::exception& e) {
        result.fail(&result.threw, std::string("sharded estimate: ") + e.what());
      }
    }
    result.streamSeconds += nowSeconds() - requestsStart;
  }

  /// Oracle: finite, positive, at most the machine-model peak, attribution
  /// summing to 100 +- 0.1, and exactly the set-up's reference GFLOPS.
  void checkEstimate(const sw::rt::RunOutcome& outcome, std::size_t index,
                     WorkloadResult& result) const {
    if (!gflopsOk(outcome.gflops, peakGflops_) ||
        !attributionOk(outcome.report))
      result.fail(&result.wrong, "estimate out of range");
    else if (outcome.gflops != referenceGflops_[index])
      result.fail(&result.wrong, "estimate differs from the set-up's");
  }

  void fillLayers(const Tracer& tracer, WorkloadResult& result) const {
    const LayerTotals& totals = totals_;
    MetricMap& layers = result.layers;
    const auto us = [&tracer](const char* span) {
      return tracer.durations(span).median() * 1e6;
    };
    const auto mean = [](const Samples& s) {
      return s.empty() ? 0.0 : s.sum() / static_cast<double>(s.count());
    };
    layers["frontend.parse_us_p50"] = {us("frontend.parse"), "us",
                                       Clock::kHost, "analyzeGemmSource"};
    layers["pipeline.us_p50"] = {us("pipeline"), "us", Clock::kHost,
                                 "runGemmPipeline"};
    layers["pipeline.static_ops"] = {static_cast<double>(staticOps_),
                                     "count", Clock::kNone,
                                     "countOps summed over the kernels"};
    layers["codegen.print_us_p50"] = {us("codegen.print"), "us", Clock::kHost,
                                      "printAthreadSources"};
    layers["codegen.cpe_source_bytes"] = {
        static_cast<double>(sourceBytes_), "bytes", Clock::kNone,
        "CPE source bytes summed over the kernels"};
    layers["plan.lower_us_p50"] = {us("plan.lower"), "us", Clock::kHost,
                                   "lowerToPlan"};
    layers["plan.instructions"] = {static_cast<double>(instructions_),
                                   "count", Clock::kNone,
                                   "plan instructions summed over the kernels"};
    layers["estimate.ns_per_sim_op"] = {
        totals.estimateSimOps > 0.0
            ? totals.estimateHostSeconds * 1e9 / totals.estimateSimOps
            : 0.0,
        "ns", Clock::kHost,
        "estimateGemm host time / simulated DMA+RMA+sync+micro-kernel ops"};
    layers["sim.exposed_dma_pct"] = {mean(totals.attrDma), "%", Clock::kSim,
                                     "mean over the sim_gflops set"};
    layers["sim.exposed_rma_pct"] = {mean(totals.attrRma), "%", Clock::kSim,
                                     "mean over the sim_gflops set"};
    layers["sim.sync_pct"] = {mean(totals.attrSync), "%", Clock::kSim,
                              "mean over the sim_gflops set"};
    layers["sim.compute_pct"] = {mean(totals.attrCompute), "%", Clock::kSim,
                                 "mean over the sim_gflops set"};
    layers["sim.flops_per_dma_byte"] = {mean(totals.flopsPerByte), "flops/byte",
                                        Clock::kSim,
                                        "mean arithmetic intensity"};
    layers["shard.sim_comm_pct"] = {mean(totals.shardCommPct), "%", Clock::kSim,
                                    "NoC share of 6-group estimates"};
  }

  RunOptions options_;
  sw::core::SwGemmCompiler compiler_;
  std::vector<PaperKernel> kernels_;
  std::vector<EstimateRequest> requests_;
  /// Index of the default kernel's 1024^3 request, printed as a note.
  std::size_t defaultAt1024_ = 0;
  std::vector<GemmProblem> sharded_;
  /// Set-up state: the oracle and the compiled kernels' static counts.
  std::vector<std::uint64_t> digests_;
  std::vector<double> referenceGflops_;
  std::int64_t staticOps_ = 0, sourceBytes_ = 0, instructions_ = 0;
  double peakGflops_ = 0.0;
  double shardedPeakGflops_ = 0.0;
  /// Stream state, carried from one pass to the next.
  std::mt19937_64 rng_{options_.seed};
  std::int64_t issued_ = 0;
  LayerTotals totals_;
};

}  // namespace

std::unique_ptr<Workload> makePaperSweep(const RunOptions& options) {
  return std::make_unique<PaperSweep>(options);
}

}  // namespace perfbench
