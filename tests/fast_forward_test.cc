// Steady-state fast-forward: exact, and engaged at paper scale.
//
// Against the symmetric estimator the plan executor jumps uniform loop
// iterations (runtime/plan.h, sunway/estimator.h).  Every case below runs
// each estimate twice: through the estimator as is, and through
// SteppedServices, a wrapper that forwards every call to an estimator but
// offers no SteadyState, so the executor steps every op.  The clock ticks
// and every counter must agree exactly.  The engagement cases then require
// the jumps to cover at least 99 % of the simulated time of each paper
// kernel at paper scale, so a change that quietly turns the fast-forward
// off fails here.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "core/gemv.h"
#include "core/pipeline.h"
#include "core/sharded_gemm.h"
#include "runtime/executor.h"
#include "runtime/plan.h"
#include "sunway/estimator.h"
#include "support/format.h"
#include "tuning/search_space.h"

namespace sw {
namespace {

using core::CodegenOptions;
using core::CompiledKernel;
using core::FusionKind;
using core::GemmProblem;
using sunway::ArchConfig;
using sunway::CpeCounters;
using sunway::SimTime;

/// The stepped reference: every call goes to a SymmetricCpeServices, but
/// steadyState() keeps the base class's nullptr.
class SteppedServices final : public sunway::CpeServices {
 public:
  explicit SteppedServices(const ArchConfig& config) : inner_(config) {}

  int rid() const override { return inner_.rid(); }
  int cid() const override { return inner_.cid(); }
  bool functional() const override { return inner_.functional(); }
  bool guardAlwaysTrue() const override { return inner_.guardAlwaysTrue(); }
  void sync() override { inner_.sync(); }
  void dmaIssue(const sunway::DmaRequest& r) override { inner_.dmaIssue(r); }
  void rmaIssue(const sunway::RmaRequest& r) override { inner_.rmaIssue(r); }
  void waitSlot(int slotId, bool isRma, bool isRow) override {
    inner_.waitSlot(slotId, isRma, isRow);
  }
  sunway::CpeTiming& timing() override { return inner_.timing(); }
  double* spmPtr(std::int64_t offsetBytes, std::int64_t count,
                 std::int64_t writeCount) override {
    return inner_.spmPtr(offsetBytes, count, writeCount);
  }
  SimTime clock() const { return inner_.clock(); }
  const CpeCounters& counters() const { return inner_.counters(); }
  int internSlot(const std::string& name) override {
    return inner_.internSlot(name);
  }
  int internArray(const std::string& name) override {
    return inner_.internArray(name);
  }

 private:
  sunway::SymmetricCpeServices inner_;
};

std::string describe(const CpeCounters& c) {
  return strCat("dma ", c.dmaMessages, "/", c.dmaBytes, " rma ",
                c.rmaBroadcastsSent, "/", c.rmaBytesSent, " syncs ", c.syncs,
                " uk ", c.microKernelCalls, " flops ", c.flops, " compute ",
                c.computeTicks, " dmaBusy ", c.dmaBusyTicks, " rmaBusy ",
                c.rmaBusyTicks, " wait ", c.waitStallTicks, " dmaStall ",
                c.dmaStallTicks, " rmaStall ", c.rmaStallTicks, " sync ",
                c.syncStallTicks);
}

/// Runs `plan` fast-forwarded and stepped and expects identical ticks and
/// counters; returns the fast-forwarded run's jump statistics.
sunway::SteadyStateStats expectExact(
    const rt::ExecutionPlan& plan,
    const std::map<std::string, std::int64_t>& params,
    const ArchConfig& arch, const std::string& label) {
  sunway::SymmetricCpeServices fast(arch);
  rt::runCpePlan(plan, params, rt::ExecScalars{}, fast);
  SteppedServices stepped(arch);
  rt::runCpePlan(plan, params, rt::ExecScalars{}, stepped);
  EXPECT_EQ(fast.clock(), stepped.clock()) << label;
  EXPECT_TRUE(fast.counters() == stepped.counters())
      << label << "\n  fast    " << describe(fast.counters())
      << "\n  stepped " << describe(stepped.counters());
  return fast.steadyStateStats();
}

/// The parameter binding estimateGemm uses: true extents for edge-tile
/// kernels, the padded shape otherwise.
std::map<std::string, std::int64_t> gemmParams(const CompiledKernel& kernel,
                                               const ArchConfig& arch,
                                               const GemmProblem& p) {
  if (kernel.options.edgeTiles)
    return rt::bindParams(kernel.program, p.m, p.n, p.k, p.batch);
  const core::PaddedShape padded =
      core::padShape(p.m, p.n, p.k, kernel.options, arch);
  return rt::bindParams(kernel.program, padded.m, padded.n, padded.k,
                        p.batch);
}

std::string shapeLabel(const std::string& kernel, const GemmProblem& p) {
  return strCat(kernel, " ", p.m, "x", p.n, "x", p.k, " batch ", p.batch);
}

/// Exactness of every shard of a sharded estimate: each shard is one
/// estimateGemm call on the contention-derated config.  Returns the jumps
/// the shards made.
std::int64_t expectShardsExact(const CompiledKernel& kernel,
                               const ArchConfig& arch,
                               const GemmProblem& problem, int groups,
                               const std::string& label) {
  const core::ShardPlan plan =
      core::planShards(kernel, arch, problem, groups, /*kSplit=*/1);
  const ArchConfig groupArch =
      arch.forConcurrentGroups(plan.concurrency(groups));
  std::int64_t jumps = 0;
  for (const core::Shard& s : plan.shards) {
    const GemmProblem sub{s.bm, s.bn, s.bk, problem.batch};
    jumps += expectExact(*kernel.plan, gemmParams(kernel, groupArch, sub),
                         groupArch, strCat(label, " shard ", s.block))
                 .jumps;
  }
  return jumps;
}

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

/// The twelve kernels the repository benchmark estimates (the paper's
/// GEMM variants, the Fig. 13 ladder and three edge-tile variants).
struct PaperKernels {
  enum Index {
    kGemm, kBatched, kTransposed, kQuantize, kRelu, kBaseline, kAsm, kRma,
    kHiding, kEdge64, kEdge16, kEdge32, kCount
  };
  std::vector<std::string> names;
  std::vector<CompiledKernel> kernels;

  explicit PaperKernels(const core::SwGemmCompiler& compiler) {
    CodegenOptions batched;
    batched.batched = true;
    CodegenOptions transposed;
    transposed.transposeA = true;
    transposed.transposeB = true;
    CodegenOptions quantize;
    quantize.fusion = FusionKind::kPrologueQuantize;
    CodegenOptions relu;
    relu.fusion = FusionKind::kEpilogueRelu;
    const std::vector<std::pair<std::string, CodegenOptions>> all = {
        {"gemm", {}},
        {"bgemm", batched},
        {"gemm_tt", transposed},
        {"qgemm", quantize},
        {"gemm_relu", relu},
        {"baseline(DMA)", ladderRung(false, false, false)},
        {"+asm", ladderRung(true, false, false)},
        {"+RMA", ladderRung(true, true, false)},
        {"+hiding", ladderRung(true, true, true)},
        {"edge64x64x32", edgeVariant(64, 64, 32)},
        {"edge16x16x16", edgeVariant(16, 16, 16)},
        {"edge32x16x16", edgeVariant(32, 16, 16)},
    };
    for (const auto& [name, options] : all) {
      names.push_back(name);
      kernels.push_back(compiler.compile(options));
    }
  }
};

/// The 165 (kernel, shape) estimates of the repository benchmark's
/// paper_sweep workload: Fig. 13's ladder, Figs. 14-16, transposed
/// operands, the K-overlap ablation and the edge variants.
std::vector<std::pair<int, GemmProblem>> paperSweepRequests() {
  using K = PaperKernels;
  std::vector<std::pair<int, GemmProblem>> out;
  for (const std::int64_t d : {1024, 1536, 2048, 2560, 3072, 3584, 4096,
                               5120, 6144, 7168, 7680, 8192, 10240, 15360})
    for (const int rung : {K::kBaseline, K::kAsm, K::kRma, K::kHiding})
      out.push_back({rung, {d, d, d, 1}});
  for (const std::int64_t m : {2048, 4096, 8192})
    for (const std::int64_t n : {4096, 8192, 16384})
      for (const std::int64_t k : {4096, 8192, 15360, 16384})
        out.push_back({K::kGemm, {m, n, k, 1}});
  for (const std::int64_t batch : {2, 4, 8, 16})
    for (const GemmProblem& s :
         {GemmProblem{1024, 1024, 2048}, GemmProblem{2048, 2048, 6144},
          GemmProblem{2048, 2048, 8192}, GemmProblem{8192, 8192, 12288},
          GemmProblem{4096, 4096, 15360}, GemmProblem{4096, 4096, 16384}})
      out.push_back({K::kBatched, {s.m, s.n, s.k, batch}});
  for (const GemmProblem& s :
       {GemmProblem{2048, 8192, 4096}, GemmProblem{4096, 8192, 4096},
        GemmProblem{4096, 16384, 4096}, GemmProblem{4096, 16384, 8192},
        GemmProblem{8192, 16384, 8192}, GemmProblem{8192, 8192, 4096},
        GemmProblem{10752, 10752, 10752}, GemmProblem{4096, 16384, 16384}})
    for (const int fused : {K::kQuantize, K::kRelu})
      out.push_back({fused, {s.m, s.n, s.k, 1}});
  for (const std::int64_t d : {1024, 2048, 4096, 8192})
    out.push_back({K::kTransposed, {d, d, d, 1}});
  for (const std::int64_t k : {256, 512, 1024, 2048, 4096, 8192, 16384}) {
    out.push_back({K::kHiding, {4096, 4096, k, 1}});
    out.push_back({K::kRma, {4096, 4096, k, 1}});
  }
  for (const int edge : {K::kEdge64, K::kEdge16, K::kEdge32})
    for (const GemmProblem& s :
         {GemmProblem{100, 100, 100}, GemmProblem{257, 63, 65},
          GemmProblem{1000, 1000, 1000}, GemmProblem{1023, 1025, 1000},
          GemmProblem{4095, 4097, 4099}})
      out.push_back({edge, {s.m, s.n, s.k, 1}});
  return out;
}

class FastForward : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    compiler_ = new core::SwGemmCompiler();
    paper_ = new PaperKernels(*compiler_);
  }
  static void TearDownTestSuite() {
    delete paper_;
    delete compiler_;
  }
  static const ArchConfig& arch() { return compiler_->arch(); }

  static core::SwGemmCompiler* compiler_;
  static PaperKernels* paper_;
};

core::SwGemmCompiler* FastForward::compiler_ = nullptr;
PaperKernels* FastForward::paper_ = nullptr;

TEST_F(FastForward, PaperSweepMatchesStepping) {
  const auto requests = paperSweepRequests();
  ASSERT_EQ(requests.size(), 165u);
  for (const auto& [index, problem] : requests) {
    const CompiledKernel& kernel =
        paper_->kernels[static_cast<std::size_t>(index)];
    expectExact(*kernel.plan, gemmParams(kernel, arch(), problem), arch(),
                shapeLabel(paper_->names[static_cast<std::size_t>(index)],
                           problem));
  }
}

TEST_F(FastForward, ShardedShapesMatchStepping) {
  const CompiledKernel& kernel = paper_->kernels[PaperKernels::kHiding];
  for (const GemmProblem& problem :
       {GemmProblem{12288, 8192, 8192, 1}, GemmProblem{8192, 8192, 8192, 1},
        GemmProblem{16384, 16384, 8192, 1}})
    EXPECT_GT(expectShardsExact(kernel, arch(), problem, 6,
                                shapeLabel("6-group", problem)),
              0);
}

TEST_F(FastForward, GemvMatchesStepping) {
  for (const bool hide : {true, false}) {
    core::GemvOptions options;
    options.hideLatency = hide;
    const core::CompiledGemv gemv = core::compileGemv(arch(), options);
    const auto plan = rt::lowerToPlan(gemv.program);
    for (const std::int64_t m : {4096, 16384})
      for (const std::int64_t k : {128, 16384})
        expectExact(*plan, {{"M", m}, {"K", k}}, arch(),
                    strCat("gemv hide=", hide, " ", m, "x", k));
  }
}

/// A seeded corpus over the tuner's own search space: a feasible
/// enumerateCandidates point (tile, strip, depth, MR×NR, edge or padded,
/// groups) on a random base (batch, transposes, fusion, asm, RMA), crossed
/// with a shape class: 1, primes, tile multiples ± 1, K < tileK, or large
/// (1024–3072, ± 3; larger shapes would make the stepped reference slow).
TEST_F(FastForward, SeededCorpusMatchesStepping) {
  std::mt19937_64 rng(20221017);
  const auto pick = [&rng](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  const auto coin = [&](int percent) { return pick(1, 100) <= percent; };
  const std::vector<std::int64_t> primes = {2, 3, 5, 7, 13, 31, 61, 127,
                                            251, 509, 1021};
  tuning::SearchSpaceConfig space;
  space.shardedGroups = {1, 2, 6};
  int draws = 0, jumped = 0;
  while (draws < 200) {
    CodegenOptions base;
    base.batched = coin(25);
    base.transposeA = coin(20);
    base.transposeB = coin(20);
    const std::int64_t fusion = pick(0, 5);
    base.fusion = fusion == 0   ? FusionKind::kPrologueQuantize
                  : fusion == 1 ? FusionKind::kEpilogueRelu
                                : FusionKind::kNone;
    base.useAsm = coin(85);
    base.useRma = coin(85);
    base.hideLatency = coin(85);
    // A shape no grid divides, so edge-tile points are enumerated too.
    const auto candidates = tuning::enumerateCandidates(
        base, arch(), GemmProblem{257, 63, 65, 1}, space);
    std::vector<tuning::ScheduleCandidate> feasible;
    for (const tuning::EnumeratedCandidate& c : candidates)
      if (c.feasible) feasible.push_back(c.candidate);
    if (feasible.empty()) continue;
    const tuning::ScheduleCandidate& candidate =
        feasible[static_cast<std::size_t>(
            pick(0, static_cast<std::int64_t>(feasible.size()) - 1))];
    const CompiledKernel kernel = compiler_->compile(candidate.apply(base));

    const std::int64_t tiles[3] = {candidate.tileM, candidate.tileN,
                                   candidate.tileK};
    std::int64_t dims[3] = {1, 1, 1};
    const std::int64_t shapeClass = pick(0, 4);
    for (int d = 0; d < 3; ++d) {
      switch (shapeClass) {
        case 0: dims[d] = 1; break;
        case 1:
          dims[d] = primes[static_cast<std::size_t>(
              pick(0, static_cast<std::int64_t>(primes.size()) - 1))];
          break;
        case 2: dims[d] = tiles[d] * pick(1, 24) + pick(-1, 1); break;
        case 3: dims[d] = d == 2 ? pick(1, tiles[2] - 1) : pick(1, 700); break;
        case 4: dims[d] = 512 * pick(2, 6) + pick(0, 1) * pick(-3, 3); break;
      }
      dims[d] = std::max<std::int64_t>(dims[d], 1);
    }
    const GemmProblem problem{dims[0], dims[1], dims[2],
                              base.batched ? pick(1, 4) : 1};
    const std::string label =
        shapeLabel(strCat("draw ", draws, " ", candidate.label()), problem);
    const std::int64_t jumps =
        candidate.shardedGroups > 1
            ? expectShardsExact(kernel, arch(), problem,
                                candidate.shardedGroups, label)
            : expectExact(*kernel.plan, gemmParams(kernel, arch(), problem),
                          arch(), label)
                  .jumps;
    jumped += jumps > 0;
    ++draws;
  }
  // The corpus must exercise the jump, not just stepping.
  EXPECT_GT(jumped, 100);
}

/// Paper scale: every benchmark kernel covers at least 99 % of its
/// simulated time with jumps, read from the report's steady_state block.
/// The edge variants run unpadded shapes, so their clamp horizons bind.
TEST_F(FastForward, PaperScaleIsCoveredByJumps) {
  for (int index = 0; index < PaperKernels::kCount; ++index) {
    const CompiledKernel& kernel =
        paper_->kernels[static_cast<std::size_t>(index)];
    const GemmProblem problem = kernel.options.edgeTiles
                                    ? GemmProblem{15359, 15361, 15363, 1}
                                    : GemmProblem{15360, 15360, 15360, 1};
    const std::string label =
        shapeLabel(paper_->names[static_cast<std::size_t>(index)], problem);
    const rt::RunOutcome outcome =
        core::estimateGemm(kernel, arch(), problem);
    const perf::PerfReport::SteadyState& steady = outcome.report.steadyState;
    EXPECT_GE(steady.coveredPct, 99.0) << label;
    EXPECT_GT(steady.jumps, 0) << label;
    EXPECT_NE(outcome.report.toJson().find("\"steady_state\":{\"jumps\":"),
              std::string::npos)
        << label;
  }
}

TEST_F(FastForward, PaperScaleEdgeHorizonMatchesStepping) {
  const CompiledKernel& kernel = paper_->kernels[PaperKernels::kEdge64];
  const GemmProblem problem{15359, 15361, 15363, 1};
  const sunway::SteadyStateStats stats =
      expectExact(*kernel.plan, gemmParams(kernel, arch(), problem), arch(),
                  shapeLabel("edge64x64x32", problem));
  EXPECT_GT(stats.jumps, 0);
}

/// The clock range is an input limit: the slowest paper-sweep rung still
/// fits at 15360^3, while a shape past ~9,223 s of simulated time raises
/// ClockRangeError (an InputError) naming the shape, and fast.
TEST_F(FastForward, ClockRangeIsAnInputLimit) {
  const CompiledKernel& baseline = paper_->kernels[PaperKernels::kBaseline];
  const rt::RunOutcome slow = core::estimateGemm(
      baseline, arch(), GemmProblem{15360, 15360, 15360, 1});
  EXPECT_GT(slow.seconds, 80.0);
  EXPECT_EQ(slow.seconds, sunway::toSeconds(slow.time));
  try {
    (void)core::estimateGemm(baseline, arch(),
                             GemmProblem{200000, 200000, 200000, 1});
    ADD_FAILURE() << "a 195,000 s estimate fit the clock range";
  } catch (const InputError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("M=200192"), std::string::npos) << what;
    EXPECT_NE(what.find("9,223 s"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace sw
