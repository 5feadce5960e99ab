// Kernel compilation service: the serving layer in front of SwGemmCompiler.
//
// Production GEMM workloads hammer a small, repeated set of kernel
// signatures, so re-running the polyhedral pipeline (§3–§7) per request is
// the dominant avoidable cost.  KernelService removes it with two
// cooperating mechanisms:
//   * an in-memory LRU cache bounded by an entry count,
//   * single-flight deduplication: N concurrent requests for the same key
//     trigger exactly one pipeline run, the rest block on its result.
// Nothing compiled outlives the process; the costly artifact, a tuned
// schedule, persists in the tuning database (tuning/tuning_db.h) instead.
// A thread-pool batch API (compileBatch) compiles a manifest of shapes
// concurrently; the CLI exposes it as `swcodegen --serve-batch/--warm`.
//
// Requests are addressed by core::canonicalRequestKey (every
// CodegenOptions + ArchConfig field, plus the key version); a source
// request's key adds the function name its kernel is printed under.  Cache
// correctness rests on compile determinism — identical keys yield
// identical kernels — which tests/compile_determinism_test.cc guards.
//
// Observability: every request opens a trace span on its worker thread
// ("service.request", outcome=memory_hit|compile|shared) and records its
// latency in the "service.compile_latency" histogram.  The cache, tuner
// and tuning-DB counts live in stats() alone; the metrics registry gets
// only the degrade steps of runResilient.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "tuning/tuner.h"
#include "tuning/tuning_db.h"

namespace sw::service {

struct KernelServiceConfig {
  /// In-memory LRU budget: admitting a kernel beyond this many cached
  /// kernels evicts the least recently used one.
  std::size_t maxEntries = 128;

  /// Worker threads for compileBatch; 0 picks hardware_concurrency.
  int threads = 0;

  /// Persistent tuning database root for resolveSchedule; empty disables
  /// persistence.  Records live under
  /// `<dir>/v<tuning-db-version>/<tune-key-digest>.json`.
  std::string tuningDir;

  /// Search configuration resolveSchedule hands the two-stage driver.
  tuning::TunerConfig tuner;
};

/// How a request was served; surfaced per request by compileBatch and in
/// aggregate by stats().
enum class ServeOutcome {
  kMemoryHit,  // served from the in-memory LRU
  kCompiled,   // full pipeline run
  kShared,     // joined an in-flight compile of the same key
};

[[nodiscard]] const char* toString(ServeOutcome outcome);

struct KernelServiceStats {
  std::int64_t requests = 0;
  std::int64_t memoryHits = 0;
  std::int64_t compiles = 0;
  std::int64_t shared = 0;          // single-flight joiners
  std::int64_t evictions = 0;
  std::size_t entries = 0;          // current LRU size

  // resolveSchedule traffic: full searches run, tuning-DB disk hits, and
  // joiners that shared an in-flight search of the same key.
  std::int64_t tuneSearches = 0;
  std::int64_t tuneDbHits = 0;
  std::int64_t tuneShared = 0;
  /// The tuning database's own lookup and store counts.
  tuning::TuningDbStats tuningDb;

  /// Requests served without a pipeline run / all requests, in [0,1].
  [[nodiscard]] double hitRate() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(memoryHits + shared) /
                     static_cast<double>(requests);
  }
};

class KernelService {
 public:
  using KernelPtr = std::shared_ptr<const core::CompiledKernel>;
  /// Test seam: the compile function of spec requests.  The default
  /// constructor wires in SwGemmCompiler::compile; tests substitute a
  /// counting stub to observe how many pipeline runs the cache actually
  /// triggers.  Source requests (compileSource) do not go through it.
  using CompileFn =
      std::function<core::CompiledKernel(const core::CodegenOptions&)>;

  explicit KernelService(sunway::ArchConfig arch = {},
                         KernelServiceConfig config = {});
  KernelService(CompileFn compileFn, sunway::ArchConfig arch,
                KernelServiceConfig config);

  [[nodiscard]] const sunway::ArchConfig& arch() const { return arch_; }
  [[nodiscard]] const KernelServiceConfig& config() const { return config_; }

  /// Serve one request through the cache.  Thread-safe; concurrent
  /// calls with the same key share one underlying compile.  Exceptions
  /// from the pipeline propagate to every waiter of the key.
  KernelPtr compile(const core::CodegenOptions& options);

  /// compile() plus the outcome actually taken, for callers that report
  /// per-request serving statistics.
  KernelPtr compile(const core::CodegenOptions& options,
                    ServeOutcome* outcome);

  /// Parse a naive C GEMM source (core::parseGemmSource), then serve its
  /// kernel through the cache under the request key plus the source's
  /// function name.  A miss compiles through SwGemmCompiler::compileParsed
  /// (not the CompileFn): the frontend's verdict stands for the pattern's
  /// proof, and the sources are printed once, under the function's name.
  /// A hit prints nothing.
  core::CompiledKernel compileSource(const std::string& source,
                                     core::CodegenOptions base = {});

  struct BatchResult {
    core::CodegenOptions options;
    KernelPtr kernel;  // nullptr when error is non-empty
    ServeOutcome outcome = ServeOutcome::kCompiled;
    double latencySeconds = 0.0;
    std::string error;
  };

  /// Compile every request on the worker pool; results are positionally
  /// aligned with `requests`.  Duplicate keys inside one batch are
  /// deduplicated by single-flight, so the batch does at most
  /// distinct-key pipeline runs.
  std::vector<BatchResult> compileBatch(
      const std::vector<core::CodegenOptions>& requests);

  /// Parse a whole batch manifest (one request per line, '#' comments and
  /// blank lines skipped) and compile every well-formed line on the worker
  /// pool.  Results align positionally with the manifest's request lines;
  /// a malformed line does not abort the batch — its BatchResult carries
  /// an error of the form "manifest line <N>: <diagnostic>" with the
  /// 1-based physical line number and the offending token.
  std::vector<BatchResult> compileManifest(const std::string& manifestText);

  /// One rung-to-rung downgrade runResilient took, oldest first.
  struct DegradeStep {
    std::string from;   // tier that failed ("asm-microkernel", ...)
    std::string to;     // tier tried next
    std::string error;  // what the failing tier threw
  };

  struct ResilientRunResult {
    rt::RunOutcome outcome;
    /// The options of the schedule that actually produced `c` (equal to
    /// the request when no downgrade happened).  When usedEstimator is
    /// true no schedule produced data: `c` is zero-filled and only the
    /// timing in `outcome` is meaningful.
    core::CodegenOptions servedOptions;
    bool usedEstimator = false;
    std::vector<DegradeStep> degradations;
  };

  /// Test seam for runResilient's mesh runs: same shape as
  /// core::runGemmFunctional minus the arch (bound to this service's).
  using RunFn = std::function<rt::RunOutcome(
      const core::CompiledKernel&, const core::GemmProblem&,
      std::span<const double>, std::span<const double>, std::span<double>,
      const core::FunctionalRunConfig&)>;

  /// Serve-and-run with graceful degradation.  Compiles `options` through
  /// the cache and runs it functionally; on failure (ProtocolError from a
  /// deadlocked/faulted mesh, pipeline errors) walks the ladder
  ///   asm-microkernel → naive compute+RMA → no-RMA schedule → estimator,
  /// re-running each rung, on the request's engine, against the untouched
  /// inputs.  Every downgrade
  /// is recorded in the result, `service.degrade.*` metrics and a trace
  /// span; the terminal estimator rung provides timing only — `c` is
  /// zero-filled so callers never mistake a failed attempt's partial
  /// writes for a result (usedEstimator flags the condition).
  ResilientRunResult runResilient(const core::CodegenOptions& options,
                                  const core::GemmProblem& problem,
                                  std::span<const double> a,
                                  std::span<const double> b,
                                  std::span<double> c,
                                  const core::FunctionalRunConfig& runConfig = {});

  /// Substitute the mesh-run step of runResilient (tests force failures
  /// per rung without building real fault plans).
  void setRunFnForTest(RunFn runFn);

  // --- schedule autotuning ----------------------------------------------

  /// A tuned schedule decision for one (base options, problem) request.
  struct ResolvedSchedule {
    /// Where the schedule came from.
    enum class Source {
      kSearch,   // ran the two-stage search (and persisted the winner)
      kDiskHit,  // served from the tuning database
      kShared,   // joined an in-flight search of the same key
    };
    /// The base options overlaid with the winning schedule — what the
    /// caller should compile.
    core::CodegenOptions options;
    tuning::TunedScheduleRecord record;
    Source source = Source::kSearch;
  };

  /// Resolve the schedule to compile for `base` at `problem`: consult the
  /// tuning database first, run the two-stage search on a miss, and
  /// persist the winner.  Thread-safe with single-flight semantics —
  /// concurrent calls for the same tune key trigger exactly one search,
  /// the rest share its record.  Search failures (e.g. nothing feasible)
  /// propagate to every waiter.  Emits "tuner.resolve" spans and records
  /// the "tuner.resolve_latency" histogram; the counts land in stats().
  ResolvedSchedule resolveSchedule(const core::CodegenOptions& base,
                                   const core::GemmProblem& problem);

  /// Test seam for resolveSchedule's search step: tests substitute a
  /// counting stub to observe how many searches the DB + single-flight
  /// actually let through.
  using SearchFn = std::function<tuning::ScheduleSearchResult(
      const core::CodegenOptions&, const sunway::ArchConfig&,
      const core::GemmProblem&, const tuning::TunerConfig&)>;
  void setSearchFnForTest(SearchFn searchFn);

  /// Absolute path a tune key's DB record would live at; empty without a
  /// tuningDir.
  [[nodiscard]] std::string tuningDbPath(const std::string& tuneKey) const;

  [[nodiscard]] KernelServiceStats stats() const;

 private:
  struct Entry {
    std::string key;
    KernelPtr kernel;
  };
  using LruList = std::list<Entry>;

  /// The compile a miss of one request runs.
  using Producer = std::function<core::CompiledKernel()>;

  /// serve() inside a `service.request` span, with its latency recorded.
  KernelPtr serveRequest(const std::string& key, const Producer& producer,
                         ServeOutcome* outcome);
  KernelPtr serve(const std::string& key, const Producer& producer,
                  ServeOutcome* outcome);
  /// Leader path: compile, then admit to the LRU (evicting the least
  /// recently used entries beyond maxEntries).  Never holds mutex_ while
  /// compiling.
  KernelPtr produce(const std::string& key, const Producer& producer,
                    ServeOutcome* outcome);

  /// Leader path of resolveSchedule: DB lookup, search, store.
  tuning::TunedScheduleRecord produceSchedule(
      const std::string& tuneKey, const core::CodegenOptions& base,
      const core::GemmProblem& problem, bool* fromDisk);

  CompileFn compileFn_;
  RunFn runFn_;  // empty = core::runGemmFunctional against arch_
  SearchFn searchFn_;  // empty = tuning::searchSchedules
  sunway::ArchConfig arch_;
  KernelServiceConfig config_;

  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::string, LruList::iterator> index_;
  std::unordered_map<std::string, std::shared_future<KernelPtr>> inflight_;
  KernelServiceStats stats_;

  /// Tuning tier: its own lock (searches are long; kernel serving must
  /// not queue behind them), the single-flight map, and the disk DB.
  mutable std::mutex tuneMutex_;
  std::unordered_map<std::string,
                     std::shared_future<tuning::TunedScheduleRecord>>
      tuneInflight_;
  tuning::TuningDb tuningDb_;
};

/// Parse one batch-manifest line into CodegenOptions.  Grammar (whitespace
/// separated, '#' starts a comment):
///   tile=MxNxK  strip=S  batch  no-asm  no-rma  no-hiding
///   fuse=relu|quantize  transA  transB
/// Throws InputError on unknown tokens or malformed values.
core::CodegenOptions parseManifestLine(const std::string& line);

/// Parse a `--warm` shape list: comma-separated tile shapes "MxNxK".
std::vector<core::CodegenOptions> parseWarmShapes(const std::string& shapes);

}  // namespace sw::service
