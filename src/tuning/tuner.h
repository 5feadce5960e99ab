// Two-stage schedule search driver (the autotuner the paper skips).
//
// The paper argues (§3.1) that analytical modelling — adopting the vendor
// micro-kernel's 64x64x32 shape — suffices for GEMM, avoiding the "tedious
// tuning overhead" of ATLAS-style search.  This subsystem builds the
// search anyway, now that candidate evaluation is cheap and attributable:
//
//   stage 1 (rank):     the base pattern's dependences are proven once
//                       per process (core::analyzeGemmPattern), so a
//                       search of a pattern already compiled proves
//                       nothing; every feasible point of the enumerated
//                       space is lowered against that proof to its program
//                       and plan (no sources, no tree dumps) and scored
//                       with the timing estimator — plan engine, logical
//                       clocks, so the ranking is deterministic and
//                       host-invariant;
//   stage 2 (validate): the top-N of the ranking run functionally on the
//                       mesh simulator with random data.  When
//                       the problem fits the validation flop budget the
//                       mesh's simulated GFLOPS (same logical clocks, full
//                       protocol) decide the winner; for paper-scale
//                       shapes the runs validate a proxy shape and the
//                       estimator ranking stands.
//
// Every candidate carries its PerfReport, so the search output doubles as
// a roofline attribution table: *why* a tile shape loses (SPM prune,
// DMA-bound, lost asm contract) is part of the result, which is the
// paper's own argument for the analytical model.  The winner replaces the
// analytic default only on a strict simulated-GFLOPS improvement, so ties
// keep the paper's choice.
//
// Results expose only checked accessors (best() throws on an empty
// search instead of indexing out of bounds — the TuneResult::bestIndex
// footgun of the retired src/core/tuner.h is structurally gone).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/gemm_runner.h"
#include "core/options.h"
#include "support/perf_report.h"
#include "sunway/arch.h"
#include "tuning/search_space.h"

namespace sw::tuning {

struct TunerConfig {
  SearchSpaceConfig space;
  /// Stage-2 width: how many of the top-ranked candidates get a measured
  /// mesh run.  0 skips validation (estimator-only search).
  int validateTopN = 3;
  /// Flop budget (2·m·n·k·batch) for one validation run; larger problems
  /// validate a proportionally-halved proxy shape so paper-scale searches
  /// stay tractable.  Candidates whose *padded* working shape still blows
  /// 8x the budget skip validation with a note.
  double maxValidationFlops = 1.0e9;
};

/// One candidate's full search record: enumeration verdict, stage-1
/// estimate, stage-2 measurement, and the perf report of the most
/// faithful run available (mesh when validated, else the estimate).
struct CandidateResult {
  ScheduleCandidate candidate;
  bool feasible = false;
  /// Prune reason (infeasible), kernel note (feasible), or validation
  /// failure diagnostics.
  std::string note;
  bool hasAsmKernel = false;
  std::int64_t spmBytesNeeded = 0;
  /// Stage-1 timing-estimator GFLOPS; 0 when infeasible.
  double estimatedGflops = 0.0;
  /// Stage 2: whether a measured mesh run completed, and its simulated
  /// GFLOPS (at the validation shape, which result.validationShape names).
  bool validated = false;
  double measuredGflops = 0.0;
  /// Stage 2 ran this candidate's mesh run and it threw (`note` says
  /// why): such a candidate never wins, whatever its estimate.
  bool validationFailed = false;
  perf::PerfReport report;

  [[nodiscard]] std::string label() const { return candidate.label(); }
};

/// Search output.  No public index: the best candidate is reachable only
/// through accessors that check it exists.
class ScheduleSearchResult {
 public:
  ScheduleSearchResult() = default;
  /// Build from a candidate list, selecting the best feasible entry
  /// (validated measurement when decisive, else the stage-1 estimate;
  /// strict improvement only, so earlier entries win ties).  A candidate
  /// whose validation failed is never selected.
  /// `measurementDecides` marks the measured GFLOPS as rank-authoritative
  /// (validation ran at the full problem shape).
  explicit ScheduleSearchResult(std::vector<CandidateResult> candidates,
                                bool measurementDecides = false);

  [[nodiscard]] const std::vector<CandidateResult>& candidates() const {
    return candidates_;
  }
  [[nodiscard]] bool hasBest() const { return hasBest_; }
  /// The winning candidate; throws InputError when the search found no
  /// feasible schedule (never indexes out of bounds).
  [[nodiscard]] const CandidateResult& best() const;
  /// nullptr instead of throwing, for callers with a fallback schedule.
  [[nodiscard]] const CandidateResult* bestOrNull() const;
  /// base overlaid with the winning schedule; throws like best().
  [[nodiscard]] core::CodegenOptions bestOptions(
      const core::CodegenOptions& base) const;

  [[nodiscard]] int feasibleCount() const;
  [[nodiscard]] int validatedCount() const;

  /// Host wall-clock the search burned (the cost §3.1 avoids).
  double searchSeconds = 0.0;
  /// The shape stage 2 actually ran (== the problem when it fit the
  /// budget); all-zero when validation was skipped entirely.
  core::GemmProblem validationShape{0, 0, 0, 0};
  /// True when validationShape is the full problem, i.e. the measured
  /// GFLOPS decided the ranking.
  bool validationAtFullShape = false;

 private:
  std::vector<CandidateResult> candidates_;
  std::size_t bestIndex_ = 0;
  bool hasBest_ = false;
};

/// Run the two-stage search.  Throws InputError naming the SPM budget when
/// no enumerated candidate is feasible; propagates nothing else from
/// individual candidates (their failures become notes).
[[nodiscard]] ScheduleSearchResult searchSchedules(
    const core::CodegenOptions& base, const sunway::ArchConfig& arch,
    const core::GemmProblem& problem, const TunerConfig& config = {});

}  // namespace sw::tuning
