// Tests of the schedule search space and the two-stage search driver
// (src/tuning/) — the estimator-guided autotuner that replaced the fixed
// grid of the retired src/core/tuner.cc.  The migrated behaviors from
// tuner_multicluster_test.cc live here: the §3.1 agreement with the
// analytical model, SPM-overflow pruning, the structured infeasible-budget
// error, and the checked-accessor regression for empty searches.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "codegen/athread_printer.h"
#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "core/pipeline.h"
#include "runtime/plan.h"
#include "support/error.h"
#include "support/trace.h"
#include "tuning/search_space.h"
#include "tuning/tuner.h"

namespace sw::tuning {
namespace {

// --- enumerator ---------------------------------------------------------

TEST(SearchSpace, AnalyticDefaultIsAlwaysFirst) {
  const core::CodegenOptions base;
  const std::vector<EnumeratedCandidate> space = enumerateCandidates(
      base, sunway::ArchConfig{}, core::GemmProblem{1024, 1024, 1024});
  ASSERT_FALSE(space.empty());
  EXPECT_EQ(space.front().candidate.tileM, base.tileM);
  EXPECT_EQ(space.front().candidate.tileN, base.tileN);
  EXPECT_EQ(space.front().candidate.tileK, base.tileK);
  EXPECT_EQ(space.front().candidate.stripFactor, base.stripFactor);
  EXPECT_TRUE(space.front().feasible);
}

TEST(SearchSpace, EveryPointAppearsExactlyOnce) {
  const std::vector<EnumeratedCandidate> space =
      enumerateCandidates(core::CodegenOptions{}, sunway::ArchConfig{},
                          core::GemmProblem{100, 100, 100});
  std::set<std::string> labels;
  for (const EnumeratedCandidate& e : space)
    EXPECT_TRUE(labels.insert(e.candidate.label()).second)
        << "duplicate candidate " << e.candidate.label();
}

TEST(SearchSpace, PrunesNonMeshStripFactorsWithTheParagraphReason) {
  // §3.2: the strip-mining factor must equal the mesh width; 4 and 16 are
  // enumerated so the report can show the constraint binding.
  const std::vector<EnumeratedCandidate> space =
      enumerateCandidates(core::CodegenOptions{}, sunway::ArchConfig{},
                          core::GemmProblem{1024, 1024, 1024});
  int badStrip = 0;
  for (const EnumeratedCandidate& e : space) {
    if (e.candidate.stripFactor == 8) continue;
    ++badStrip;
    EXPECT_FALSE(e.feasible) << e.candidate.label();
    EXPECT_NE(e.pruneReason.find("strip factor"), std::string::npos)
        << e.pruneReason;
    EXPECT_NE(e.pruneReason.find("§3.2"), std::string::npos) << e.pruneReason;
  }
  EXPECT_GT(badStrip, 0);
}

TEST(SearchSpace, PrunesSpmOverflowsNamingTheWorkingSet) {
  // Migrated from Tuner.FlagsSpmOverflows: big double-buffered tiles blow
  // the 256 KB SPM; the prune reason names both sides of the inequality.
  const std::vector<EnumeratedCandidate> space =
      enumerateCandidates(core::CodegenOptions{}, sunway::ArchConfig{},
                          core::GemmProblem{2048, 2048, 2048});
  int overflows = 0;
  for (const EnumeratedCandidate& e : space) {
    if (e.feasible || e.pruneReason.find("SPM") == std::string::npos)
      continue;
    ++overflows;
    EXPECT_NE(e.pruneReason.find("exceeds the SPM budget"), std::string::npos)
        << e.pruneReason;
    EXPECT_GT(e.spmBytesNeeded, sunway::ArchConfig{}.spmBytes)
        << e.candidate.label();
  }
  EXPECT_GT(overflows, 0);
}

TEST(SearchSpace, SpmFormulaMatchesTheCompiledProgram) {
  // The analytic working set must mirror the pipeline's SpmBufferDecl
  // construction exactly, or the enumerator would burn pipeline runs on
  // known-infeasible points (or prune feasible ones).
  for (std::int64_t tile : {32L, 64L}) {
    core::CodegenOptions options;
    options.tileM = options.tileN = tile;
    const core::CompiledKernel kernel =
        core::SwGemmCompiler().compile(options);
    EXPECT_EQ(spmBytesForOptions(options), kernel.program.spmBytesUsed())
        << "tile " << tile;
  }
}

TEST(SearchSpace, EdgeVariantsOnlyForNonDivisibleShapes) {
  const core::CodegenOptions base;
  // 1024 divides every power-of-two tile: the square power-of-two points
  // must not grow a redundant edge twin.
  for (const EnumeratedCandidate& e :
       enumerateCandidates(base, sunway::ArchConfig{},
                           core::GemmProblem{1024, 1024, 1024})) {
    if (e.candidate.edgeTiles) {
      EXPECT_FALSE(shapeDivisible(e.candidate.apply(base),
                                  sunway::ArchConfig{},
                                  core::GemmProblem{1024, 1024, 1024}))
          << e.candidate.label();
    }
  }
  // 100^3 divides no candidate tile, so edge variants must exist.
  int edges = 0;
  for (const EnumeratedCandidate& e :
       enumerateCandidates(base, sunway::ArchConfig{},
                           core::GemmProblem{100, 100, 100}))
    edges += e.candidate.edgeTiles ? 1 : 0;
  EXPECT_GT(edges, 0);
}

TEST(SearchSpace, NoDoubleBufferCandidatesWhenBaseForbidsRma) {
  core::CodegenOptions noRma;
  noRma.useRma = false;
  noRma.hideLatency = false;
  for (const EnumeratedCandidate& e :
       enumerateCandidates(noRma, sunway::ArchConfig{},
                           core::GemmProblem{1024, 1024, 1024})) {
    // (strip-factor pruning takes precedence, so only valid-strip points
    // carry the pipeline reason)
    if (e.candidate.bufferDepth == 2 && !e.feasible &&
        e.candidate.stripFactor == 8) {
      EXPECT_NE(e.pruneReason.find("double buffering"), std::string::npos)
          << e.pruneReason;
    }
    if (e.feasible) {
      EXPECT_EQ(e.candidate.bufferDepth, 1);
    }
  }
}

// --- search driver ------------------------------------------------------

/// Estimator-only search config: fast, and sufficient for ranking tests.
TunerConfig estimateOnly() {
  TunerConfig config;
  config.validateTopN = 0;
  return config;
}

TEST(ScheduleSearch, LandsOnTheAnalyticalChoiceAtPaperScale) {
  // Migrated from Tuner.LandsOnTheAnalyticalChoice (§3.1): at a square
  // paper-scale shape the asm contract dominates and the search must agree
  // with the analytical model's 64x64x32.
  const ScheduleSearchResult result =
      searchSchedules(core::CodegenOptions{}, sunway::ArchConfig{},
                      core::GemmProblem{1024, 1024, 1024}, estimateOnly());
  EXPECT_EQ(result.best().candidate.tileM, 64);
  EXPECT_EQ(result.best().candidate.tileN, 64);
  EXPECT_EQ(result.best().candidate.tileK, 32);
  EXPECT_EQ(result.best().candidate.bufferDepth, 2);
  EXPECT_FALSE(result.best().candidate.edgeTiles);
  EXPECT_TRUE(result.best().hasAsmKernel);
  EXPECT_GT(result.searchSeconds, 0.0);
  // The asm winner strictly dominates every other feasible candidate.
  for (const CandidateResult& c : result.candidates()) {
    if (!c.feasible || c.label() == result.best().label()) continue;
    EXPECT_LT(c.estimatedGflops, result.best().estimatedGflops) << c.label();
  }
}

TEST(ScheduleSearch, EdgeScheduleBeatsTheAnalyticDefaultOnOddShapes) {
  // The payoff the subsystem exists for: on shapes where padding waste
  // dominates, a smaller edge-tiled schedule must beat the paper's
  // analytic default.
  const ScheduleSearchResult result =
      searchSchedules(core::CodegenOptions{}, sunway::ArchConfig{},
                      core::GemmProblem{100, 100, 100}, estimateOnly());
  EXPECT_TRUE(result.best().candidate.edgeTiles);
  // candidates()[0] is the analytic default by construction.
  const CandidateResult& analytic = result.candidates().front();
  EXPECT_EQ(analytic.candidate.tileM, 64);
  EXPECT_GT(result.best().estimatedGflops, analytic.estimatedGflops);
}

TEST(ScheduleSearch, ValidationAttachesMeasuredMeshReports) {
  TunerConfig config;
  config.validateTopN = 2;
  const ScheduleSearchResult result =
      searchSchedules(core::CodegenOptions{}, sunway::ArchConfig{},
                      core::GemmProblem{100, 100, 100}, config);
  EXPECT_EQ(result.validatedCount(), 2);
  // 100^3 = 2 MFLOP fits the budget, so the mesh measurement decides.
  EXPECT_TRUE(result.validationAtFullShape);
  EXPECT_EQ(result.validationShape.m, 100);
  EXPECT_TRUE(result.best().validated);
  EXPECT_GT(result.best().measuredGflops, 0.0);
  for (const CandidateResult& c : result.candidates()) {
    if (!c.validated) continue;
    // The attached report is the mesh run's attribution: buckets sum to
    // ~100% and the roofline has a verdict.
    EXPECT_NEAR(c.report.attribution.sum(), 100.0, 0.5) << c.label();
    EXPECT_FALSE(c.report.roofline.verdict.empty()) << c.label();
  }
}

TEST(ScheduleSearch, PaperScaleShapesValidateAProxyShape) {
  TunerConfig config;
  config.validateTopN = 1;
  const ScheduleSearchResult result =
      searchSchedules(core::CodegenOptions{}, sunway::ArchConfig{},
                      core::GemmProblem{4096, 4096, 4096}, config);
  // 4096^3 = 137 GFLOP blows the 1 GFLOP validation budget: stage 2 runs
  // a halved proxy shape and the estimator ranking stands.
  EXPECT_FALSE(result.validationAtFullShape);
  EXPECT_LT(result.validationShape.m, 4096);
  EXPECT_GT(result.validationShape.m, 0);
  EXPECT_EQ(result.best().label(), "64x64x32/s8/d2/pad/mk4x8");
}

TEST(ScheduleSearch, DeterministicAcrossRuns) {
  // Stage 1 ranks with the logical-clock estimator, so two searches of the
  // same request must agree exactly (the property the tuning DB relies on).
  const core::GemmProblem problem{257, 63, 65};
  const ScheduleSearchResult first = searchSchedules(
      core::CodegenOptions{}, sunway::ArchConfig{}, problem, estimateOnly());
  const ScheduleSearchResult second = searchSchedules(
      core::CodegenOptions{}, sunway::ArchConfig{}, problem, estimateOnly());
  EXPECT_EQ(first.best().label(), second.best().label());
  EXPECT_DOUBLE_EQ(first.best().estimatedGflops,
                   second.best().estimatedGflops);
  EXPECT_EQ(first.candidates().size(), second.candidates().size());
}

TEST(ScheduleSearch, TinySpmRaisesStructuredError) {
  // Migrated from Tuner.TinySpmRaisesStructuredError: with a 4 KB SPM no
  // candidate fits even single-buffered; the search must raise a
  // structured InputError naming the budget instead of dying on an
  // internal invariant.
  sunway::ArchConfig arch;
  arch.spmBytes = 4 * 1024;
  try {
    (void)searchSchedules(core::CodegenOptions{}, arch,
                          core::GemmProblem{512, 512, 512}, estimateOnly());
    FAIL() << "expected InputError for an SPM too small for any candidate";
  } catch (const sw::InputError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("SPM budget of 4096 bytes"), std::string::npos) << msg;
  }
}

TEST(ScheduleSearch, EmptyResultNeverIndexesOutOfBounds) {
  // Regression for the retired TuneResult::bestIndex footgun: an empty or
  // all-infeasible search exposes no index to misuse — best() throws,
  // bestOrNull() is null, bestOptions() throws.
  const ScheduleSearchResult empty;
  EXPECT_FALSE(empty.hasBest());
  EXPECT_THROW((void)empty.best(), sw::InputError);
  EXPECT_EQ(empty.bestOrNull(), nullptr);
  EXPECT_THROW((void)empty.bestOptions(core::CodegenOptions{}),
               sw::InputError);

  std::vector<CandidateResult> infeasibleOnly(2);
  infeasibleOnly[0].note = "pruned";
  infeasibleOnly[1].note = "pruned";
  const ScheduleSearchResult noFeasible(std::move(infeasibleOnly));
  EXPECT_FALSE(noFeasible.hasBest());
  EXPECT_THROW((void)noFeasible.best(), sw::InputError);
  EXPECT_EQ(noFeasible.bestOrNull(), nullptr);
  EXPECT_EQ(noFeasible.feasibleCount(), 0);
}

TEST(ScheduleSearch, MeasurementDecidesOnlyWhenMarked) {
  // Two feasible candidates where the estimate and the measurement
  // disagree: the ctor must follow the measurement only when the search
  // says it ran at the full shape.
  std::vector<CandidateResult> candidates(2);
  candidates[0].feasible = true;
  candidates[0].estimatedGflops = 100.0;
  candidates[0].validated = true;
  candidates[0].measuredGflops = 10.0;
  candidates[1].feasible = true;
  candidates[1].estimatedGflops = 50.0;
  candidates[1].validated = true;
  candidates[1].measuredGflops = 20.0;

  const ScheduleSearchResult byEstimate(candidates);
  EXPECT_DOUBLE_EQ(byEstimate.best().estimatedGflops, 100.0);
  const ScheduleSearchResult byMeasurement(candidates,
                                           /*measurementDecides=*/true);
  EXPECT_DOUBLE_EQ(byMeasurement.best().measuredGflops, 20.0);
}

/// Three feasible candidates, best estimate first: the top one's mesh run
/// threw, the second validated, the third ranked below the validation cut.
std::vector<CandidateResult> topEstimateFailedValidation() {
  std::vector<CandidateResult> candidates(3);
  candidates[0].feasible = true;
  candidates[0].estimatedGflops = 100.0;
  candidates[0].validationFailed = true;
  candidates[0].note = "vendor micro-kernel; validation failed: mesh deadlock";
  candidates[1].feasible = true;
  candidates[1].estimatedGflops = 50.0;
  candidates[1].validated = true;
  candidates[1].measuredGflops = 20.0;
  candidates[2].feasible = true;
  candidates[2].estimatedGflops = 10.0;
  return candidates;
}

TEST(ScheduleSearch, FailedValidationNeverWins) {
  // At the full shape the measurement decides; at a proxy shape the
  // estimate does.  Either way the schedule whose run threw is out.
  for (const bool fullShape : {true, false}) {
    const ScheduleSearchResult result(topEstimateFailedValidation(),
                                      fullShape);
    EXPECT_DOUBLE_EQ(result.best().estimatedGflops, 50.0) << fullShape;
  }
  // When every validation threw, no measurement decides: the best
  // estimate that did not fail wins, even one never validated.
  std::vector<CandidateResult> allFailed = topEstimateFailedValidation();
  allFailed[1].validated = false;
  allFailed[1].validationFailed = true;
  const ScheduleSearchResult fallback(allFailed, /*measurementDecides=*/true);
  EXPECT_DOUBLE_EQ(fallback.best().estimatedGflops, 10.0);
  // With nothing else left there is no best at all.
  allFailed.pop_back();
  const ScheduleSearchResult none(std::move(allFailed));
  EXPECT_FALSE(none.hasBest());
  EXPECT_THROW((void)none.best(), sw::InputError);
}

// --- ranking lowers what compile() prints ------------------------------

/// The plan's instruction stream and every table it indexes have the same
/// shape (the plan has no operator==; its code is the part runs execute).
void expectSamePlanCode(const rt::ExecutionPlan& ranked,
                        const rt::ExecutionPlan& compiled,
                        const std::string& label) {
  ASSERT_EQ(ranked.code.size(), compiled.code.size()) << label;
  for (std::size_t pc = 0; pc < ranked.code.size(); ++pc) {
    EXPECT_EQ(ranked.code[pc].op, compiled.code[pc].op) << label << " @" << pc;
    EXPECT_EQ(ranked.code[pc].a, compiled.code[pc].a) << label << " @" << pc;
  }
  EXPECT_EQ(ranked.frameSlots, compiled.frameSlots) << label;
  EXPECT_EQ(ranked.loops.size(), compiled.loops.size()) << label;
  EXPECT_EQ(ranked.dmas.size(), compiled.dmas.size()) << label;
  EXPECT_EQ(ranked.rmas.size(), compiled.rmas.size()) << label;
  EXPECT_EQ(ranked.computes.size(), compiled.computes.size()) << label;
  EXPECT_EQ(ranked.exprs.size(), compiled.exprs.size()) << label;
  EXPECT_EQ(ranked.terms.size(), compiled.terms.size()) << label;
  EXPECT_EQ(ranked.slotNames, compiled.slotNames) << label;
  EXPECT_EQ(ranked.paramSlots, compiled.paramSlots) << label;
}

TEST(ScheduleSearch, RankingLowersExactlyWhatCompilePrints) {
  // The search proves the base pattern once and lowers every candidate
  // against that proof to program and plan alone.  Each such kernel must
  // be the one compile() builds from the same options: the same printed
  // sources, the same plan code, a bit-equal estimate — and the search's
  // own score must be that estimate.
  core::CodegenOptions batchedTransposed;
  batchedTransposed.batched = true;
  batchedTransposed.transposeA = true;
  batchedTransposed.transposeB = true;
  core::CodegenOptions relu;
  relu.fusion = core::FusionKind::kEpilogueRelu;
  const struct {
    core::CodegenOptions base;
    core::GemmProblem problem;
  } cases[] = {
      {core::CodegenOptions{}, {1024, 1024, 1024}},
      {core::CodegenOptions{}, {100, 100, 100}},
      {core::CodegenOptions{}, {257, 63, 65}},
      {batchedTransposed, {100, 100, 100, 2}},
      {relu, {100, 100, 100}},
  };
  const sunway::ArchConfig arch;
  const core::SwGemmCompiler compiler(arch);
  for (const auto& [base, problem] : cases) {
    const core::PatternAnalysis pattern = core::analyzeGemmPattern(base);
    const ScheduleSearchResult search =
        searchSchedules(base, arch, problem, estimateOnly());
    int checked = 0;
    for (const CandidateResult& result : search.candidates()) {
      if (!result.feasible) continue;
      const core::CodegenOptions options = result.candidate.apply(base);
      const std::string label = result.label() + " at " +
                                std::to_string(problem.m) + "x" +
                                std::to_string(problem.n) + "x" +
                                std::to_string(problem.k);
      const core::CompiledKernel ranked = compiler.lower(options, pattern);
      const core::CompiledKernel compiled = compiler.compile(options);
      EXPECT_TRUE(ranked.cpeSource.empty()) << label;
      EXPECT_TRUE(ranked.program == compiled.program) << label;
      const codegen::GeneratedSources printed =
          codegen::printAthreadSources(ranked.program);
      EXPECT_EQ(printed.cpe, compiled.cpeSource) << label;
      EXPECT_EQ(printed.mpe, compiled.mpeSource) << label;
      ASSERT_NE(ranked.plan, nullptr) << label;
      expectSamePlanCode(*ranked.plan, *compiled.plan, label);
      const rt::RunOutcome rankedEstimate =
          core::estimateGemm(ranked, arch, problem);
      const rt::RunOutcome compiledEstimate =
          core::estimateGemm(compiled, arch, problem);
      EXPECT_EQ(rankedEstimate.time, compiledEstimate.time) << label;
      EXPECT_EQ(rankedEstimate.gflops, compiledEstimate.gflops) << label;
      EXPECT_TRUE(rankedEstimate.counters == compiledEstimate.counters)
          << label;
      EXPECT_EQ(result.estimatedGflops, compiledEstimate.gflops) << label;
      ++checked;
    }
    EXPECT_EQ(checked, search.feasibleCount());
    EXPECT_GT(checked, 100);
  }
}

TEST(ScheduleSearch, ProvesThePatternOnceAndPrintsNothing) {
  // One dependence analysis per search, however many candidates it ranks,
  // and no printed sources: the winner is printed by whoever compiles it.
  // The analysis is the process's proof of the pattern, so once a compile
  // has proved it the search reuses it.
  (void)core::analyzeGemmPattern(core::CodegenOptions{});
  trace::Tracer& tracer = trace::Tracer::global();
  tracer.clear();
  tracer.enable();
  const ScheduleSearchResult result =
      searchSchedules(core::CodegenOptions{}, sunway::ArchConfig{},
                      core::GemmProblem{100, 100, 100});
  tracer.disable();
  const std::vector<trace::TraceEvent> events = tracer.snapshot();
  tracer.clear();
  const auto count = [&events](const std::string& name) {
    return std::count_if(
        events.begin(), events.end(),
        [&name](const trace::TraceEvent& e) { return e.name == name; });
  };
  EXPECT_GT(result.feasibleCount(), 100);
  EXPECT_EQ(count("tuner.candidate"), result.feasibleCount());
  EXPECT_EQ(count("pipeline.dependence"), 1);
  EXPECT_EQ(count("codegen.print"), 0);
  EXPECT_EQ(count("lower.plan"), result.feasibleCount());
  const auto dependence =
      std::find_if(events.begin(), events.end(), [](const auto& e) {
        return e.name == "pipeline.dependence";
      });
  ASSERT_NE(dependence, events.end());
  const auto analysis =
      std::find_if(dependence->args.begin(), dependence->args.end(),
                   [](const auto& arg) { return arg.key == "analysis"; });
  ASSERT_NE(analysis, dependence->args.end());
  EXPECT_EQ(analysis->value, "reused");
}

}  // namespace
}  // namespace sw::tuning
