// functional_mesh: a seeded stream of functional GEMMs on the default plan
// engine, one closed-loop client thread, against kernels compiled during
// setup.
//
// Host time here goes to four places: the 64-thread mesh (spawn/join,
// condvar DMA/RMA channels, barriers), per-CPE plan dispatch, micro-kernel
// math, and pack/unpack.  Small edge shapes are bound by sync and
// dispatch, padded 256^3 by math, so the stream shows both sides of
// "overhead or math".  Every result is compared bit for bit with the
// reference GEMM; the oracle runs with the stream clock stopped.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <random>
#include <span>

#include "bench.h"
#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "core/sharded_gemm.h"
#include "kernel/microkernel.h"
#include "kernel/reference.h"
#include "runtime/executor.h"
#include "sunway/mesh.h"

namespace perfbench {
namespace {

using sw::core::CodegenOptions;
using sw::core::CompiledKernel;
using sw::core::FusionKind;
using sw::core::GemmProblem;

enum Kernel : std::size_t {
  kPadded, kEdge64, kEdge16, kTransposed, kBatched, kRelu, kQuantize, kNoRma,
  kKernelCount
};

CodegenOptions kernelOptions(std::size_t kernel) {
  CodegenOptions o;
  o.edgeTiles = kernel != kPadded;
  switch (kernel) {
    case kEdge16: o.tileM = o.tileN = o.tileK = 16; break;
    case kTransposed: o.transposeA = o.transposeB = true; break;
    case kBatched: o.batched = true; break;
    case kRelu: o.fusion = FusionKind::kEpilogueRelu; break;
    case kQuantize: o.fusion = FusionKind::kPrologueQuantize; break;
    case kNoRma: o.useRma = o.hideLatency = false; break;
    default: break;
  }
  return o;
}

/// Shape classes drawn around the cases that change behaviour.
enum class ShapeClass { kCube128, kCube256, kTiny, kPrime, kTileEdge, kSmallK, kMid };

struct Template {
  std::size_t kernel;
  ShapeClass shape;
  int groups = 0;  // 0: runGemmFunctional; else runShardedFunctional
};

/// One round of the stream: the multiset every round shuffles, so every
/// seed runs the same mix of work on different shapes and data.
const std::vector<Template>& roundTemplates() {
  using S = ShapeClass;
  static const std::vector<Template> templates = {
      {kPadded, S::kCube128}, {kPadded, S::kCube128}, {kPadded, S::kCube256},
      {kEdge64, S::kTiny},    {kEdge64, S::kPrime},   {kEdge64, S::kTileEdge},
      {kEdge64, S::kSmallK},  {kEdge64, S::kMid},     {kEdge64, S::kMid},
      {kEdge16, S::kTiny},    {kEdge16, S::kPrime},   {kEdge16, S::kTileEdge},
      {kEdge16, S::kSmallK},  {kEdge16, S::kMid},
      {kTransposed, S::kPrime}, {kTransposed, S::kTileEdge},
      {kBatched, S::kPrime},  {kBatched, S::kTileEdge},
      {kRelu, S::kPrime},     {kRelu, S::kMid},
      {kQuantize, S::kPrime}, {kQuantize, S::kSmallK},
      {kNoRma, S::kPrime},    {kNoRma, S::kTileEdge},
      // One shape for the sharded slice: the 6-group runs set p99, so a
      // drawn shape would make p99 follow the seed.
      {kEdge64, S::kCube256, 2}, {kEdge64, S::kCube256, 6},
  };
  return templates;
}

/// The fixed (kernel, shape) set behind sim_gflops_*; run during setup.
struct Anchor {
  std::size_t kernel;
  GemmProblem problem;
};
const std::vector<Anchor>& anchors() {
  static const std::vector<Anchor> set = {
      {kPadded, {128, 128, 128, 1}}, {kPadded, {256, 256, 256, 1}},
      {kEdge64, {100, 100, 100, 1}}, {kEdge64, {257, 63, 65, 1}},
      {kEdge16, {100, 100, 100, 1}}, {kTransposed, {65, 65, 65, 1}},
      {kBatched, {65, 65, 65, 3}},   {kRelu, {100, 100, 100, 1}},
      {kQuantize, {100, 100, 100, 1}}, {kNoRma, {100, 100, 100, 1}},
  };
  return set;
}

constexpr std::array<std::pair<double, double>, 4> kAlphaBeta = {
    {{1.0, 1.0}, {2.0, -1.0}, {0.5, 2.0}, {3.0, 0.25}}};

/// Operands of one request: views into the seeded pool plus a private C.
struct Operands {
  std::span<const double> a, b;
  std::vector<double> c;
};

class FunctionalMesh : public Workload {
 public:
  explicit FunctionalMesh(const RunOptions& options) : options_(options) {}

  void setup(WorkloadResult& result) override {
    kernels_.clear();
    {
      CpuRotation rotation;  // released before the mesh runs the anchors
      for (std::size_t i = 0; i < kKernelCount; ++i) {
        rotation.next();
        const double start = nowSeconds();
        kernels_.push_back(compiler_.compile(kernelOptions(i)));
        result.compileMs.add((nowSeconds() - start) * 1e3);
      }
    }
    // Operand pool: requests take A and B as views at seeded offsets.
    std::mt19937_64 rng(options_.seed);
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    pool_.assign(kPoolSize, 0.0);
    for (double& v : pool_) v = dist(rng);
    // Warm-up doubles as the sim_gflops set: each anchor runs once and is
    // checked against the oracle.
    anchorOutcomes_.clear();
    result.simGflops.clear();
    for (const Anchor& anchor : anchors()) {
      Operands ops = operands(anchor.problem, rng);
      const std::vector<double> c0 = ops.c;
      const sw::rt::RunOutcome outcome = sw::core::runGemmFunctional(
          kernels_[anchor.kernel], compiler_.arch(), anchor.problem, ops.a,
          ops.b, ops.c);
      if (!matchesReference(anchor.kernel, anchor.problem, ops, c0))
        result.fail(&result.wrong, "anchor run differs from the reference");
      result.simGflops.push_back(outcome.gflops);
      anchorOutcomes_.push_back(outcome);
    }
  }

  int windows(double /*seconds*/) const override { return kWindows; }

  void window(double seconds, std::int64_t maxRequests, Tracer* tracer,
              WorkloadResult& result) override {
    double busy = 0.0;
    std::int64_t issued = 0;
    while ((issued == 0 || busy < seconds) &&
           (maxRequests == 0 || issued < maxRequests)) {
      if (next_ == round_.size()) {
        std::shuffle(round_.begin(), round_.end(), rng_);
        next_ = 0;
      }
      ++issued;
      busy += runOne(round_[next_++], ++issued_, tracer, result);
    }
    result.streamSeconds += busy;
  }

  void finishTrace(Tracer& tracer, WorkloadResult& result) override {
    fillLayers(tracer, result);
    totals_ = LayerTotals{};
  }

  std::int64_t companionRequests() const override {
    return static_cast<std::int64_t>(roundTemplates().size());
  }

 private:
  static constexpr std::size_t kPoolSize = std::size_t{1} << 20;
  static constexpr int kWindows = 8;

  struct LayerTotals {
    double wall = 0.0, cpu = 0.0, simOps = 0.0, ukernelCalls = 0.0;
    double switches = 0.0, copyBytes = 0.0;
    std::int64_t runs = 0;
    Samples shardWallMs;
    double shardWall = 0.0, shardCpu = 0.0;
  };

  GemmProblem drawShape(const Template& t, std::mt19937_64& rng) const {
    static const std::vector<std::int64_t> kTinyDims = {1, 2, 3, 5, 7, 11, 13};
    static const std::vector<std::int64_t> kPrimes = {
        17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
        71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127};
    const CodegenOptions& o = kernels_[t.kernel].options;
    const auto pick = [&rng](const std::vector<std::int64_t>& menu) {
      return menu[std::uniform_int_distribution<std::size_t>(
          0, menu.size() - 1)(rng)];
    };
    const auto around = [&rng](std::int64_t tile) {
      const std::int64_t options[] = {tile - 1, tile + 1, 2 * tile - 1,
                                      2 * tile + 1};
      return options[std::uniform_int_distribution<int>(0, 3)(rng)];
    };
    const auto uniform = [&rng](std::int64_t lo, std::int64_t hi) {
      return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
    };
    GemmProblem p;
    switch (t.shape) {
      case ShapeClass::kCube128: p = {128, 128, 128}; break;
      case ShapeClass::kCube256: p = {256, 256, 256}; break;
      case ShapeClass::kTiny: p = {pick(kTinyDims), pick(kTinyDims), pick(kTinyDims)}; break;
      case ShapeClass::kPrime: p = {pick(kPrimes), pick(kPrimes), pick(kPrimes)}; break;
      case ShapeClass::kTileEdge:
        p = {around(o.tileM), around(o.tileN), around(o.tileK)};
        break;
      case ShapeClass::kSmallK:
        p = {pick(kPrimes), pick(kPrimes), uniform(1, o.tileK - 1)};
        break;
      case ShapeClass::kMid: {
        // Small tiles make many mesh tiles; keep their sizes modest.
        const std::int64_t hi = o.tileM < 64 ? 130 : 300;
        p = {uniform(100, hi), uniform(100, hi), uniform(100, hi)};
        break;
      }
    }
    p.batch = o.batched ? uniform(2, 4) : 1;
    const auto& [alpha, beta] = kAlphaBeta[std::uniform_int_distribution<
        std::size_t>(0, kAlphaBeta.size() - 1)(rng)];
    p.alpha = alpha;
    p.beta = beta;
    return p;
  }

  Operands operands(const GemmProblem& p, std::mt19937_64& rng) const {
    const auto view = [&](std::int64_t count) {
      const auto n = static_cast<std::size_t>(count);
      const std::size_t offset =
          std::uniform_int_distribution<std::size_t>(0, kPoolSize - n)(rng);
      return std::span<const double>(pool_.data() + offset, n);
    };
    Operands ops;
    ops.a = view(p.batch * p.m * p.k);
    ops.b = view(p.batch * p.k * p.n);
    const std::span<const double> c = view(p.batch * p.m * p.n);
    ops.c.assign(c.begin(), c.end());
    return ops;
  }

  /// The oracle: kernel::referenceGemm with the kernel's k-block, operands
  /// transposed back with tileTranspose, fusion applied through the
  /// reference's lambdas.  Bit-for-bit comparison.
  bool matchesReference(std::size_t kernel, const GemmProblem& p,
                        const Operands& ops,
                        const std::vector<double>& c0) const {
    const CodegenOptions& o = kernels_[kernel].options;
    std::vector<double> expected = c0;
    if (o.batched) {
      sw::kernel::referenceBatchedGemm(expected.data(), ops.a.data(),
                                       ops.b.data(), p.batch, p.m, p.n, p.k,
                                       p.alpha, p.beta, o.tileK);
    } else {
      std::vector<double> a(ops.a.begin(), ops.a.end());
      std::vector<double> b(ops.b.begin(), ops.b.end());
      if (o.transposeA) sw::kernel::tileTranspose(a.data(), ops.a.data(), p.k, p.m);
      if (o.transposeB) sw::kernel::tileTranspose(b.data(), ops.b.data(), p.n, p.k);
      std::function<double(double)> prologue, epilogue;
      if (o.fusion == FusionKind::kPrologueQuantize)
        prologue = [](double x) {
          return std::nearbyint(x * sw::kernel::kQuantScale) /
                 sw::kernel::kQuantScale;
        };
      if (o.fusion == FusionKind::kEpilogueRelu)
        epilogue = [](double x) { return x > 0.0 ? x : 0.0; };
      sw::kernel::referenceGemm(expected.data(), a.data(), b.data(), p.m, p.n,
                                p.k, p.alpha, p.beta, o.tileK, prologue,
                                epilogue);
    }
    return std::memcmp(expected.data(), ops.c.data(),
                       expected.size() * sizeof(double)) == 0;
  }

  /// Run one request; returns its host wall seconds (the oracle is not
  /// counted).
  double runOne(const Template& t, std::int64_t request, Tracer* tracer,
                WorkloadResult& result) {
    LayerTotals& totals = totals_;
    ++result.attempted;
    const GemmProblem p = drawShape(t, rng_);
    Operands ops = operands(p, rng_);
    const std::vector<double> c0 = ops.c;
    const CompiledKernel& kernel = kernels_[t.kernel];
    double elapsed = 0.0;
    try {
      const Usage before = tracer != nullptr ? readUsage() : Usage{};
      const double start = nowSeconds();
      if (t.groups == 0) {
        sw::rt::RunOutcome outcome;
        {
          const Tracer::Scope span(tracer, "run.functional", request);
          outcome = sw::core::runGemmFunctional(kernel, compiler_.arch(), p,
                                                ops.a, ops.b, ops.c);
        }
        elapsed = nowSeconds() - start;
        if (tracer != nullptr) {
          const Usage after = readUsage();
          const auto& c = outcome.counters;
          totals.wall += elapsed;
          totals.cpu += after.cpuSeconds - before.cpuSeconds;
          totals.switches += static_cast<double>(after.voluntarySwitches -
                                                 before.voluntarySwitches);
          totals.simOps += static_cast<double>(
              c.dmaMessages + c.rmaBroadcastsSent + c.syncs +
              c.microKernelCalls);
          totals.ukernelCalls += static_cast<double>(c.microKernelCalls);
          totals.copyBytes += static_cast<double>(outcome.hostCopyBytes);
          ++totals.runs;
        }
      } else {
        sw::core::ShardedConfig config;
        config.groups = t.groups;
        {
          const Tracer::Scope span(tracer, "run.sharded", request);
          (void)sw::core::runShardedFunctional(kernel, compiler_.arch(),
                                               config, p, ops.a, ops.b, ops.c);
        }
        elapsed = nowSeconds() - start;
        if (tracer != nullptr) {
          totals.shardWallMs.add(elapsed * 1e3);
          totals.shardWall += elapsed;
          totals.shardCpu += readUsage().cpuSeconds - before.cpuSeconds;
        }
      }
      result.latencyMs.add(elapsed * 1e3);
      if (!matchesReference(t.kernel, p, ops, c0))
        result.fail(&result.wrong,
                    "functional result differs from the reference");
    } catch (const std::exception& e) {
      result.fail(&result.threw, std::string("functional run: ") + e.what());
    }
    return elapsed;
  }

  /// Mesh probes: spawn + join of 64 empty CPE bodies, and the cost of one
  /// 64-CPE barrier (100 syncs per body, spawn cost subtracted).
  void probeMesh(Tracer& tracer, MetricMap& layers) const {
    sw::sunway::MeshSimulator mesh(compiler_.arch(), /*functional=*/true);
    Samples spawn, barrier;
    for (int rep = 0; rep < 30; ++rep) {
      const double start = nowSeconds();
      {
        const Tracer::Scope span(&tracer, "mesh.spawn_join");
        (void)mesh.run([](sw::sunway::CpeServices&) {});
      }
      spawn.add(nowSeconds() - start);
    }
    constexpr int kSyncs = 100;
    for (int rep = 0; rep < 10; ++rep) {
      const double start = nowSeconds();
      {
        const Tracer::Scope span(&tracer, "mesh.barriers");
        (void)mesh.run([](sw::sunway::CpeServices& cpe) {
          for (int i = 0; i < kSyncs; ++i) cpe.sync();
        });
      }
      barrier.add((nowSeconds() - start - spawn.median()) / kSyncs);
    }
    layers["mesh.spawn_join_us"] = {spawn.median() * 1e6, "us", Clock::kHost,
                                    "MeshSimulator::run, empty body, median of 30"};
    layers["mesh.barrier_us"] = {barrier.median() * 1e6, "us", Clock::kHost,
                                 "per 64-CPE sync, median of 10 x 100"};
  }

  /// Host nanoseconds of one 64x64x32 dgemmMicroKernel call.
  static double probeMicroKernel(Tracer& tracer) {
    using sw::kernel::kMicroK;
    using sw::kernel::kMicroM;
    using sw::kernel::kMicroN;
    std::vector<double> a(kMicroM * kMicroK, 0.5), b(kMicroK * kMicroN, 0.25),
        c(kMicroM * kMicroN, 0.0);
    constexpr int kCalls = 200;
    Samples perCall;
    for (int rep = 0; rep < 20; ++rep) {
      const double start = nowSeconds();
      {
        const Tracer::Scope span(&tracer, "kernel.ukernel");
        for (int i = 0; i < kCalls; ++i)
          sw::kernel::dgemmMicroKernel(c.data(), a.data(), b.data(), kMicroM,
                                       kMicroN, kMicroK);
      }
      perCall.add((nowSeconds() - start) / kCalls);
    }
    if (c[0] == 0.0) return 0.0;  // keeps the loop observable
    return perCall.median() * 1e9;
  }

  void fillLayers(Tracer& tracer, WorkloadResult& result) const {
    const LayerTotals& t = totals_;
    MetricMap& layers = result.layers;
    const auto ratio = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double runs = static_cast<double>(std::max<std::int64_t>(1, t.runs));
    layers["run.cpu_per_wall"] = {ratio(t.cpu, t.wall), "ratio", Clock::kHost,
                                  "getrusage CPU / wall, runGemmFunctional"};
    layers["run.vol_ctx_switches"] = {t.switches / runs, "count", Clock::kHost,
                                      "voluntary switches per functional run"};
    layers["run.host_ns_per_sim_op"] = {
        ratio(t.wall * 1e9, t.simOps), "ns", Clock::kHost,
        "wall / simulated DMA+RMA+sync+micro-kernel ops (64 CPEs)"};
    layers["run.host_copy_bytes"] = {t.copyBytes / runs, "bytes", Clock::kHost,
                                     "RunOutcome.hostCopyBytes per run"};
    const double ukernelNs = probeMicroKernel(tracer);
    layers["kernel.ukernel_ns"] = {ukernelNs, "ns", Clock::kHost,
                                   "dgemmMicroKernel 64x64x32, median"};
    layers["run.ukernel_share"] = {
        ratio(t.ukernelCalls * ukernelNs * 1e-9, t.wall), "ratio",
        Clock::kHost, "computed: micro-kernel calls x ukernel_ns / wall"};
    layers["shard.wall_ms_p50"] = {t.shardWallMs.median(), "ms", Clock::kHost,
                                   "runShardedFunctional, 2 and 6 groups"};
    layers["shard.cpu_per_wall"] = {ratio(t.shardCpu, t.shardWall), "ratio",
                                    Clock::kHost, "runShardedFunctional"};
    probeMesh(tracer, layers);
    Samples dma, rma, sync, compute, intensity;
    for (const sw::rt::RunOutcome& o : anchorOutcomes_) {
      dma.add(o.report.attribution.exposedDmaPct);
      rma.add(o.report.attribution.exposedRmaPct);
      sync.add(o.report.attribution.syncPct);
      compute.add(o.report.attribution.computePct);
      intensity.add(o.report.roofline.arithmeticIntensity);
    }
    const double n = static_cast<double>(std::max<std::size_t>(1, dma.count()));
    layers["sim.exposed_dma_pct"] = {dma.sum() / n, "%", Clock::kSim,
                                     "mean over the anchor runs"};
    layers["sim.exposed_rma_pct"] = {rma.sum() / n, "%", Clock::kSim,
                                     "mean over the anchor runs"};
    layers["sim.sync_pct"] = {sync.sum() / n, "%", Clock::kSim,
                              "mean over the anchor runs"};
    layers["sim.compute_pct"] = {compute.sum() / n, "%", Clock::kSim,
                                 "mean over the anchor runs"};
    layers["sim.flops_per_dma_byte"] = {intensity.sum() / n, "flops/byte",
                                        Clock::kSim, "mean over the anchor runs"};
  }

  RunOptions options_;
  sw::core::SwGemmCompiler compiler_;
  std::vector<CompiledKernel> kernels_;
  std::vector<double> pool_;
  std::vector<sw::rt::RunOutcome> anchorOutcomes_;
  /// Stream state, carried from one window to the next: the shuffled
  /// round and the next request in it.
  std::mt19937_64 rng_{options_.seed ^ 0x5eedf00dull};
  std::vector<Template> round_ = roundTemplates();
  std::size_t next_ = round_.size();
  std::int64_t issued_ = 0;
  LayerTotals totals_;
};

}  // namespace

std::unique_ptr<Workload> makeFunctionalMesh(const RunOptions& options) {
  return std::make_unique<FunctionalMesh>(options);
}

}  // namespace perfbench
