#include "tuning/tuner.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <random>

#include "core/compiler.h"
#include "core/pipeline.h"
#include "core/sharded_gemm.h"
#include "support/error.h"
#include "support/format.h"
#include "support/logging.h"
#include "support/trace.h"

namespace sw::tuning {

namespace {

std::vector<double> randomMatrix(std::int64_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> data(static_cast<std::size_t>(count));
  for (double& v : data) v = dist(rng);
  return data;
}

double problemFlops(const core::GemmProblem& p) {
  return 2.0 * static_cast<double>(p.m) * static_cast<double>(p.n) *
         static_cast<double>(p.k) * static_cast<double>(p.batch);
}

/// Shrink the problem towards the validation flop budget: batch first,
/// then repeated halving of the largest dim.  Deterministic, and a
/// problem already inside the budget comes back untouched.
core::GemmProblem clampValidationShape(const core::GemmProblem& problem,
                                       double maxFlops) {
  core::GemmProblem shape = problem;
  if (problemFlops(shape) > maxFlops && shape.batch > 2) shape.batch = 2;
  while (problemFlops(shape) > maxFlops) {
    std::int64_t* largest = &shape.m;
    if (shape.n > *largest) largest = &shape.n;
    if (shape.k > *largest) largest = &shape.k;
    if (*largest <= 1) break;
    *largest = (*largest + 1) / 2;
  }
  return shape;
}

}  // namespace

ScheduleSearchResult::ScheduleSearchResult(
    std::vector<CandidateResult> candidates, bool measurementDecides)
    : candidates_(std::move(candidates)) {
  // Strict improvement only: the enumerator puts the analytic default
  // first, so a tie keeps the paper's choice.
  double bestScore = -1.0;
  if (measurementDecides) {
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      const CandidateResult& c = candidates_[i];
      if (!c.validated) continue;
      if (c.measuredGflops > bestScore) {
        bestScore = c.measuredGflops;
        bestIndex_ = i;
        hasBest_ = true;
      }
    }
    if (hasBest_) return;
  }
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    const CandidateResult& c = candidates_[i];
    if (!c.feasible || c.validationFailed) continue;
    if (c.estimatedGflops > bestScore) {
      bestScore = c.estimatedGflops;
      bestIndex_ = i;
      hasBest_ = true;
    }
  }
}

const CandidateResult& ScheduleSearchResult::best() const {
  if (!hasBest_ || bestIndex_ >= candidates_.size())
    throw InputError(
        "ScheduleSearchResult::best(): the search found no feasible "
        "schedule candidate that did not fail validation");
  return candidates_[bestIndex_];
}

const CandidateResult* ScheduleSearchResult::bestOrNull() const {
  return hasBest_ && bestIndex_ < candidates_.size()
             ? &candidates_[bestIndex_]
             : nullptr;
}

core::CodegenOptions ScheduleSearchResult::bestOptions(
    const core::CodegenOptions& base) const {
  return best().candidate.apply(base);
}

int ScheduleSearchResult::feasibleCount() const {
  int count = 0;
  for (const CandidateResult& c : candidates_) count += c.feasible ? 1 : 0;
  return count;
}

int ScheduleSearchResult::validatedCount() const {
  int count = 0;
  for (const CandidateResult& c : candidates_) count += c.validated ? 1 : 0;
  return count;
}

ScheduleSearchResult searchSchedules(const core::CodegenOptions& base,
                                     const sunway::ArchConfig& arch,
                                     const core::GemmProblem& problem,
                                     const TunerConfig& config) {
  // A batch the base kernel cannot take fails every candidate alike; say
  // so once instead of reporting an empty search space.
  core::checkBatch(base, problem);
  const auto start = std::chrono::steady_clock::now();
  trace::Span searchSpan(
      "tuner.search",
      {trace::arg("m", problem.m), trace::arg("n", problem.n),
       trace::arg("k", problem.k), trace::arg("batch", problem.batch)});

  const std::vector<EnumeratedCandidate> space =
      enumerateCandidates(base, arch, problem, config.space);

  // --- stage 1: lower + rank every feasible point on the estimator ------
  // Candidates differ only in schedule, never in pattern, so the
  // pattern's one proof in this process serves them all; each is lowered
  // to program and plan, never printed.
  const core::PatternAnalysis& pattern = core::analyzeGemmPattern(base);
  const core::SwGemmCompiler compiler(arch);
  std::vector<CandidateResult> results;
  results.reserve(space.size());
  // Kernels of feasible candidates, index-aligned with `results`, kept for
  // the validation stage.
  std::vector<std::optional<core::CompiledKernel>> kernels(space.size());
  for (std::size_t i = 0; i < space.size(); ++i) {
    const EnumeratedCandidate& entry = space[i];
    CandidateResult result;
    result.candidate = entry.candidate;
    result.spmBytesNeeded = entry.spmBytesNeeded;
    result.hasAsmKernel = entry.candidate.hasAsmKernel(base);
    if (!entry.feasible) {
      result.note = entry.pruneReason;
      results.push_back(std::move(result));
      continue;
    }
    trace::Span candidateSpan("tuner.candidate",
                              {trace::arg("schedule", result.label())});
    try {
      core::CompiledKernel kernel =
          compiler.lower(entry.candidate.apply(base), pattern);
      if (entry.candidate.shardedGroups > 1) {
        // Multi-group candidates score through the sharded estimator, so
        // the ranking sees the contention-derated node roofline rather
        // than an optimistic single-group-times-N extrapolation.
        core::ShardedConfig sharded;
        sharded.groups = entry.candidate.shardedGroups;
        const core::ShardedOutcome estimate =
            core::estimateSharded(kernel, arch, sharded, problem);
        result.estimatedGflops = estimate.gflops;
        result.report = estimate.report;
      } else {
        const rt::RunOutcome estimate =
            core::estimateGemm(kernel, arch, problem);
        result.estimatedGflops = estimate.gflops;
        result.report = estimate.report;
      }
      result.feasible = true;
      result.note = result.hasAsmKernel ? "vendor micro-kernel"
                                        : "compiler-scheduled inner loops";
      kernels[i] = std::move(kernel);
    } catch (const Error& e) {
      // The analytic prune should have caught this; keep the pipeline's
      // own reason so the report explains the disagreement.
      result.note = e.what();
    }
    candidateSpan.addArg(
        trace::arg("feasible", result.feasible ? "true" : "false"));
    candidateSpan.addArg(trace::arg("gflops", result.estimatedGflops));
    SW_DEBUG("tuner", "event=candidate schedule=", result.label(),
             " feasible=", result.feasible,
             " est_gflops=", result.estimatedGflops);
    results.push_back(std::move(result));
  }

  std::vector<std::size_t> ranking;
  for (std::size_t i = 0; i < results.size(); ++i)
    if (results[i].feasible) ranking.push_back(i);
  if (ranking.empty())
    throw InputError(strCat(
        "tuner: none of the ", results.size(),
        " enumerated schedule candidates is feasible for GEMM ", problem.m,
        "x", problem.n, "x", problem.k, ": the SPM budget of ",
        arch.spmBytes, " bytes (and the §3.2 mesh constraints) prune the "
        "whole space; raise ArchConfig::spmBytes or widen "
        "SearchSpaceConfig"));
  std::stable_sort(ranking.begin(), ranking.end(),
                   [&](std::size_t a, std::size_t b) {
                     return results[a].estimatedGflops >
                            results[b].estimatedGflops;
                   });

  // --- stage 2: measured mesh runs for the top of the ranking -----------
  const core::GemmProblem validationShape =
      clampValidationShape(problem, config.maxValidationFlops);
  const bool fullShape = validationShape.m == problem.m &&
                         validationShape.n == problem.n &&
                         validationShape.k == problem.k &&
                         validationShape.batch == problem.batch;
  const int topN =
      std::min<int>(config.validateTopN, static_cast<int>(ranking.size()));
  for (int rank = 0; rank < topN; ++rank) {
    CandidateResult& result = results[ranking[static_cast<std::size_t>(rank)]];
    const core::CompiledKernel& kernel =
        *kernels[ranking[static_cast<std::size_t>(rank)]];
    trace::Span validateSpan("tuner.validate",
                             {trace::arg("schedule", result.label()),
                              trace::arg("rank", std::int64_t{rank})});
    // Padded kernels inflate the working shape to the tile grid; skip a
    // measured run that would dwarf the budget the proxy shape enforces.
    const core::PaddedShape padded =
        core::padShape(validationShape.m, validationShape.n,
                       validationShape.k, kernel.options, arch);
    const double paddedFlops =
        2.0 * static_cast<double>(padded.m) * static_cast<double>(padded.n) *
        static_cast<double>(padded.k) *
        static_cast<double>(validationShape.batch);
    if (paddedFlops > 8.0 * config.maxValidationFlops) {
      result.note = strCat(result.note,
                           "; validation skipped: padded working shape ",
                           padded.m, "x", padded.n, "x", padded.k,
                           " exceeds the validation budget");
      continue;
    }
    const bool tA = kernel.options.transposeA;
    const bool tB = kernel.options.transposeB;
    const std::int64_t m = validationShape.m, n = validationShape.n,
                       k = validationShape.k, batch = validationShape.batch;
    std::vector<double> a = randomMatrix(batch * (tA ? k * m : m * k), 11);
    std::vector<double> b = randomMatrix(batch * (tB ? n * k : k * n), 12);
    std::vector<double> c = randomMatrix(batch * m * n, 13);
    try {
      if (result.candidate.shardedGroups > 1) {
        core::ShardedConfig sharded;
        sharded.groups = result.candidate.shardedGroups;
        const core::ShardedOutcome outcome = core::runShardedFunctional(
            kernel, arch, sharded, validationShape, a, b, c);
        result.validated = true;
        result.measuredGflops = outcome.gflops;
        result.report = outcome.report;
        validateSpan.addArg(trace::arg("gflops", outcome.gflops));
      } else {
        const rt::RunOutcome outcome = core::runGemmFunctional(
            kernel, arch, validationShape, a, b, c, {});
        result.validated = true;
        result.measuredGflops = outcome.gflops;
        result.report = outcome.report;
        validateSpan.addArg(trace::arg("gflops", outcome.gflops));
      }
    } catch (const Error& e) {
      result.validationFailed = true;
      result.note = strCat(result.note, "; validation failed: ", e.what());
      validateSpan.addArg(trace::arg("error", e.what()));
    }
  }

  ScheduleSearchResult search(std::move(results), fullShape);
  search.validationShape = topN > 0 ? validationShape
                                    : core::GemmProblem{0, 0, 0, 0};
  search.validationAtFullShape = fullShape && topN > 0;
  search.searchSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const CandidateResult& best = search.best();
  const double bestGflops = search.validationAtFullShape && best.validated
                                ? best.measuredGflops
                                : best.estimatedGflops;
  searchSpan.addArg(trace::arg("best", best.label()));
  searchSpan.addArg(trace::arg("best_gflops", bestGflops));
  SW_INFO("tuner", "event=search_done best=", best.label(),
          " best_gflops=", bestGflops,
          " candidates=", search.candidates().size(),
          " feasible=", search.feasibleCount(),
          " validated=", search.validatedCount(),
          " search_seconds=", search.searchSeconds);
  return search;
}

}  // namespace sw::tuning
