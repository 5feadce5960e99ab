#include "service/kernel_service.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <utility>

#include "runtime/plan.h"
#include "support/digest.h"
#include "support/error.h"
#include "support/format.h"
#include "support/histogram.h"
#include "support/logging.h"
#include "support/metrics.h"
#include "support/trace.h"

namespace sw::service {

namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Record one request latency into the named histogram and return the
/// histogram bucket label so the span can carry it (coarse timing
/// survives even when the raw trace is off).
std::string recordLatency(const char* histogram, double seconds) {
  const double ms = seconds * 1e3;
  metrics::HistogramRegistry::global().record(histogram, ms);
  return metrics::Histogram::bucketLabel(metrics::Histogram::bucketIndex(ms));
}

}  // namespace

const char* toString(ServeOutcome outcome) {
  switch (outcome) {
    case ServeOutcome::kMemoryHit: return "memory_hit";
    case ServeOutcome::kCompiled: return "compile";
    case ServeOutcome::kShared: return "shared";
  }
  return "unknown";
}

KernelService::KernelService(sunway::ArchConfig arch,
                             KernelServiceConfig config)
    : KernelService(
          [archCopy = arch](const core::CodegenOptions& options) {
            return core::SwGemmCompiler(archCopy).compile(options);
          },
          arch, std::move(config)) {}

KernelService::KernelService(CompileFn compileFn, sunway::ArchConfig arch,
                             KernelServiceConfig config)
    : compileFn_(std::move(compileFn)),
      arch_(arch),
      config_(std::move(config)),
      tuningDb_(config_.tuningDir) {}

KernelService::KernelPtr KernelService::compile(
    const core::CodegenOptions& options) {
  ServeOutcome outcome;
  return compile(options, &outcome);
}

KernelService::KernelPtr KernelService::compile(
    const core::CodegenOptions& options, ServeOutcome* outcome) {
  return serveRequest(core::canonicalRequestKey(options, arch_),
                      [&] { return compileFn_(options); }, outcome);
}

core::CompiledKernel KernelService::compileSource(const std::string& source,
                                                  core::CodegenOptions base) {
  const core::ParsedGemmSource parsed = core::parseGemmSource(source, base);
  // The program's name is part of the kernel, so it is part of the key:
  // a miss prints once, under the user's function name, and a hit prints
  // nothing.
  ServeOutcome outcome;
  return *serveRequest(
      core::canonicalRequestKey(parsed.options, arch_) + "name=" +
          parsed.functionName,
      [&] { return core::SwGemmCompiler(arch_).compileParsed(parsed); },
      &outcome);
}

KernelService::KernelPtr KernelService::serveRequest(
    const std::string& key, const Producer& producer, ServeOutcome* outcome) {
  trace::Span span("service.request",
                   {trace::arg("key", digestHex(fnv1a64(key)))});
  const double start = nowSeconds();
  KernelPtr kernel = serve(key, producer, outcome);
  span.addArg(trace::arg("outcome", toString(*outcome)));
  span.addArg(trace::arg(
      "latency_bucket",
      recordLatency("service.compile_latency", nowSeconds() - start)));
  return kernel;
}

KernelService::KernelPtr KernelService::serve(const std::string& key,
                                              const Producer& producer,
                                              ServeOutcome* outcome) {
  std::promise<KernelPtr> promise;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++stats_.requests;
    if (auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.memoryHits;
      *outcome = ServeOutcome::kMemoryHit;
      return it->second->kernel;
    }
    if (auto it = inflight_.find(key); it != inflight_.end()) {
      ++stats_.shared;
      *outcome = ServeOutcome::kShared;
      std::shared_future<KernelPtr> future = it->second;
      lock.unlock();
      return future.get();  // rethrows the leader's failure, if any
    }
    inflight_.emplace(key, promise.get_future().share());
  }

  // Leader path: this thread owns the (single) compile for the key.
  try {
    KernelPtr kernel = produce(key, producer, outcome);
    promise.set_value(kernel);
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    return kernel;
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_.erase(key);
    throw;
  }
}

KernelService::KernelPtr KernelService::produce(const std::string& key,
                                                const Producer& producer,
                                                ServeOutcome* outcome) {
  core::CompiledKernel compiled = producer();
  // Custom CompileFn implementations (test doubles) may hand back plan-less
  // kernels; every kernel served by the cache carries its lowered plan.
  if (!compiled.plan) compiled.plan = rt::lowerToPlan(compiled.program);
  auto kernel =
      std::make_shared<const core::CompiledKernel>(std::move(compiled));
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.compiles;
  lru_.push_front(Entry{key, kernel});
  index_[key] = lru_.begin();
  while (lru_.size() > 1 && lru_.size() > config_.maxEntries) {
    ++stats_.evictions;
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  stats_.entries = lru_.size();
  *outcome = ServeOutcome::kCompiled;
  return kernel;
}

std::vector<KernelService::BatchResult> KernelService::compileBatch(
    const std::vector<core::CodegenOptions>& requests) {
  std::vector<BatchResult> results(requests.size());
  if (requests.empty()) return results;

  int threads = config_.threads;
  if (threads <= 0)
    threads = static_cast<int>(std::thread::hardware_concurrency());
  if (threads <= 0) threads = 4;
  const std::size_t workerCount =
      std::min<std::size_t>(static_cast<std::size_t>(threads),
                            requests.size());

  std::atomic<std::size_t> nextRequest{0};
  auto worker = [&] {
    while (true) {
      const std::size_t i = nextRequest.fetch_add(1);
      if (i >= requests.size()) return;
      BatchResult& result = results[i];
      result.options = requests[i];
      const double start = nowSeconds();
      try {
        result.kernel = compile(requests[i], &result.outcome);
      } catch (const Error& e) {
        result.error = e.what();
      }
      result.latencySeconds = nowSeconds() - start;
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workerCount);
  for (std::size_t i = 0; i < workerCount; ++i) pool.emplace_back(worker);
  for (std::thread& t : pool) t.join();
  return results;
}

std::vector<KernelService::BatchResult> KernelService::compileManifest(
    const std::string& manifestText) {
  // Parse first: malformed lines become per-line errors (never aborting
  // the batch), well-formed lines compile together on the worker pool.
  std::vector<BatchResult> results;
  std::vector<core::CodegenOptions> valid;
  std::vector<std::size_t> validSlots;  // results index per valid request
  std::istringstream manifest(manifestText);
  std::string line;
  for (int lineNumber = 1; std::getline(manifest, line); ++lineNumber) {
    const std::size_t nonBlank = line.find_first_not_of(" \t\r");
    if (nonBlank == std::string::npos || line[nonBlank] == '#') continue;
    BatchResult result;
    try {
      result.options = parseManifestLine(line);
      validSlots.push_back(results.size());
      valid.push_back(result.options);
    } catch (const Error& e) {
      result.error = strCat("manifest line ", lineNumber, ": ", e.what());
    }
    results.push_back(std::move(result));
  }

  std::vector<BatchResult> compiled = compileBatch(valid);
  for (std::size_t i = 0; i < compiled.size(); ++i)
    results[validSlots[i]] = std::move(compiled[i]);
  return results;
}

KernelServiceStats KernelService::stats() const {
  // The tune counters are guarded by tuneMutex_, the rest by mutex_;
  // lock order everywhere is tuneMutex_ before mutex_.
  std::lock_guard<std::mutex> tuneLock(tuneMutex_);
  std::lock_guard<std::mutex> lock(mutex_);
  KernelServiceStats stats = stats_;
  stats.tuningDb = tuningDb_.stats();
  return stats;
}

// --- graceful degradation -----------------------------------------------

namespace {

/// Human name of a ladder rung, used in DegradeStep and log lines.
std::string tierName(const core::CodegenOptions& options) {
  if (options.useAsm) return "asm-microkernel";
  if (options.useRma) return "naive-compute";
  return "no-rma";
}

/// Metric suffix a downgrade *to* this rung records under service.degrade.
const char* degradeMetric(const std::string& tier) {
  if (tier == "naive-compute") return "service.degrade.to_naive";
  if (tier == "no-rma") return "service.degrade.to_no_rma";
  return "service.degrade.to_estimator";
}

void recordDegrade(const std::string& from, const std::string& to,
                   const std::string& error) {
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::global();
  registry.add("service.degrade.total", 1.0);
  registry.add(degradeMetric(to), 1.0);
  trace::Span span("service.degrade",
                   {trace::arg("from", from), trace::arg("to", to),
                    trace::arg("error", error)},
                   "service");
  SW_WARN("service", "event=degrade from=", from, " to=", to,
          " error=\"", error, "\"");
}

}  // namespace

void KernelService::setRunFnForTest(RunFn runFn) {
  runFn_ = std::move(runFn);
}

KernelService::ResilientRunResult KernelService::runResilient(
    const core::CodegenOptions& options, const core::GemmProblem& problem,
    std::span<const double> a, std::span<const double> b, std::span<double> c,
    const core::FunctionalRunConfig& runConfig) {
  trace::Span span("service.resilient_run",
                   {trace::arg("m", problem.m), trace::arg("n", problem.n),
                    trace::arg("k", problem.k)},
                   "service");
  const double start = nowSeconds();

  RunFn run = runFn_;
  if (!run) {
    run = [this](const core::CompiledKernel& kernel,
                 const core::GemmProblem& p, std::span<const double> ra,
                 std::span<const double> rb, std::span<double> rc,
                 const core::FunctionalRunConfig& rc2) {
      return core::runGemmFunctional(kernel, arch_, p, ra, rb, rc, rc2);
    };
  }

  // The ladder trades performance features for protocol surface: drop the
  // asm micro-kernel, then the RMA broadcasts (and with them the pipelined
  // schedule).  Rungs equal to an earlier one are skipped, so a request
  // that already is `--no-rma` has a two-rung ladder.
  std::vector<core::CodegenOptions> rungs{options};
  core::CodegenOptions naive = options;
  naive.useAsm = false;
  core::CodegenOptions noRma = naive;
  noRma.useRma = false;
  noRma.hideLatency = false;
  for (const core::CodegenOptions& rung : {naive, noRma}) {
    const std::string key = core::canonicalRequestKey(rung, arch_);
    bool duplicate = false;
    for (const core::CodegenOptions& seen : rungs)
      duplicate |= core::canonicalRequestKey(seen, arch_) == key;
    if (!duplicate) rungs.push_back(rung);
  }

  ResilientRunResult result;
  std::string lastTier = tierName(options);
  std::string lastError;
  KernelPtr lastKernel;
  // The inputs must survive a failed attempt unmodified, so every rung
  // works on a private copy of C and only a success is copied back.
  std::vector<double> scratch;
  for (const core::CodegenOptions& rung : rungs) {
    const std::string tier = tierName(rung);
    if (!lastError.empty()) {
      recordDegrade(lastTier, tier, lastError);
      result.degradations.push_back(DegradeStep{lastTier, tier, lastError});
    }
    lastTier = tier;
    try {
      KernelPtr kernel = compile(rung);
      lastKernel = kernel;
      scratch.assign(c.begin(), c.end());
      result.outcome = run(*kernel, problem, a, b,
                           std::span<double>(scratch), runConfig);
      std::copy(scratch.begin(), scratch.end(), c.begin());
      result.servedOptions = rung;
      span.addArg(trace::arg(
          "latency_bucket",
          recordLatency("service.run_latency", nowSeconds() - start)));
      return result;
    } catch (const Error& error) {
      lastError = error.what();
    }
  }

  // Every functional rung failed; the symmetric estimator cannot hang or
  // race (sequential, no data), so it terminates the ladder with timing
  // from the safest compiled schedule.  Without any compiled kernel there
  // is nothing left to serve — surface the last failure.
  recordDegrade(lastTier, "estimator", lastError);
  result.degradations.push_back(
      DegradeStep{lastTier, "estimator", lastError});
  if (!lastKernel) {
    throw InternalError(strCat(
        "resilient run: every schedule rung failed to compile; last error: ",
        lastError));
  }
  // The estimator carries no data: zero-fill C so the caller never sees
  // the last failed attempt's partial writes as if they were a result.
  std::fill(c.begin(), c.end(), 0.0);
  result.outcome = core::estimateGemm(*lastKernel, arch_, problem);
  result.servedOptions = lastKernel->options;
  result.usedEstimator = true;
  span.addArg(trace::arg(
      "latency_bucket",
      recordLatency("service.run_latency", nowSeconds() - start)));
  return result;
}

// --- schedule autotuning ------------------------------------------------

void KernelService::setSearchFnForTest(SearchFn searchFn) {
  searchFn_ = std::move(searchFn);
}

std::string KernelService::tuningDbPath(const std::string& tuneKey) const {
  return tuningDb_.pathForKey(tuneKey);
}

tuning::TunedScheduleRecord KernelService::produceSchedule(
    const std::string& tuneKey, const core::CodegenOptions& base,
    const core::GemmProblem& problem, bool* fromDisk) {
  {
    // TuningDb is not internally locked; tuneMutex_ serializes its file
    // and counter traffic (the lookup/store calls are short — the search
    // itself runs unlocked below).
    std::lock_guard<std::mutex> lock(tuneMutex_);
    if (std::optional<tuning::TunedScheduleRecord> cached =
            tuningDb_.lookup(tuneKey)) {
      *fromDisk = true;
      ++stats_.tuneDbHits;
      SW_INFO("service", "event=tune_db_hit schedule=",
              cached->schedule.label(), " gflops=", cached->gflops,
              " path=", tuningDb_.pathForKey(tuneKey));
      return *cached;
    }
  }

  *fromDisk = false;
  SearchFn search = searchFn_;
  if (!search) {
    search = [](const core::CodegenOptions& b, const sunway::ArchConfig& a,
                const core::GemmProblem& p, const tuning::TunerConfig& c) {
      return tuning::searchSchedules(b, a, p, c);
    };
  }
  const tuning::ScheduleSearchResult result =
      search(base, arch_, problem, config_.tuner);
  const tuning::CandidateResult& best = result.best();

  tuning::TunedScheduleRecord record;
  record.schedule = best.candidate;
  // The DB keeps the GFLOPS figure the search actually decided by: the
  // mesh measurement when validation ran at the full problem shape, the
  // stage-1 estimate otherwise.
  record.gflops = (result.validationAtFullShape && best.validated)
                      ? best.measuredGflops
                      : best.estimatedGflops;
  record.measuredGflops = best.validated ? best.measuredGflops : 0.0;
  record.verdict = best.report.roofline.verdict;
  record.candidatesEnumerated = static_cast<int>(result.candidates().size());
  record.candidatesFeasible = result.feasibleCount();
  record.candidatesValidated = result.validatedCount();
  record.searchSeconds = result.searchSeconds;

  {
    std::lock_guard<std::mutex> lock(tuneMutex_);
    tuningDb_.store(tuneKey, record);
    ++stats_.tuneSearches;
  }
  SW_INFO("service", "event=tune_search_done schedule=",
          record.schedule.label(), " gflops=", record.gflops,
          " candidates=", record.candidatesEnumerated,
          " feasible=", record.candidatesFeasible,
          " validated=", record.candidatesValidated,
          " seconds=", record.searchSeconds);
  return record;
}

KernelService::ResolvedSchedule KernelService::resolveSchedule(
    const core::CodegenOptions& base, const core::GemmProblem& problem) {
  const std::string tuneKey = tuning::canonicalTuneKey(base, arch_, problem);
  trace::Span span("tuner.resolve",
                   {trace::arg("key", digestHex(fnv1a64(tuneKey))),
                    trace::arg("m", problem.m), trace::arg("n", problem.n),
                    trace::arg("k", problem.k)},
                   "tuner");
  const double start = nowSeconds();

  auto finish = [&](tuning::TunedScheduleRecord record,
                    ResolvedSchedule::Source source, const char* outcome) {
    span.addArg(trace::arg("outcome", outcome));
    span.addArg(trace::arg("schedule", record.schedule.label()));
    span.addArg(trace::arg(
        "latency_bucket",
        recordLatency("tuner.resolve_latency", nowSeconds() - start)));
    ResolvedSchedule resolved;
    resolved.options = record.schedule.apply(base);
    resolved.record = std::move(record);
    resolved.source = source;
    return resolved;
  };

  std::promise<tuning::TunedScheduleRecord> promise;
  {
    std::unique_lock<std::mutex> lock(tuneMutex_);
    if (auto it = tuneInflight_.find(tuneKey); it != tuneInflight_.end()) {
      std::shared_future<tuning::TunedScheduleRecord> future = it->second;
      lock.unlock();
      // Rethrows the leader's failure, if any.
      tuning::TunedScheduleRecord record = future.get();
      {
        std::lock_guard<std::mutex> relock(tuneMutex_);
        ++stats_.tuneShared;
      }
      return finish(std::move(record), ResolvedSchedule::Source::kShared,
                    "shared");
    }
    tuneInflight_.emplace(tuneKey, promise.get_future().share());
  }

  // Leader path: this thread owns the (single) search for the key.
  bool fromDisk = false;
  try {
    tuning::TunedScheduleRecord record =
        produceSchedule(tuneKey, base, problem, &fromDisk);
    promise.set_value(record);
    {
      std::lock_guard<std::mutex> lock(tuneMutex_);
      tuneInflight_.erase(tuneKey);
    }
    return finish(std::move(record),
                  fromDisk ? ResolvedSchedule::Source::kDiskHit
                           : ResolvedSchedule::Source::kSearch,
                  fromDisk ? "db_hit" : "search");
  } catch (...) {
    promise.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(tuneMutex_);
    tuneInflight_.erase(tuneKey);
    throw;
  }
}

// --- manifest parsing ---------------------------------------------------

namespace {

std::int64_t parsePositiveInt(const std::string& text,
                              const std::string& what) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE ||
      v <= 0)
    throwInput(strCat(what, " must be a positive integer, got '", text, "'"));
  return v;
}

/// "MxNxK" -> three positive integers.
void parseTileShape(const std::string& text, core::CodegenOptions& options) {
  const std::size_t x1 = text.find('x');
  const std::size_t x2 = x1 == std::string::npos ? std::string::npos
                                                 : text.find('x', x1 + 1);
  if (x1 == std::string::npos || x2 == std::string::npos)
    throwInput(strCat("tile shape must look like MxNxK, got '", text, "'"));
  options.tileM = parsePositiveInt(text.substr(0, x1), "tile M");
  options.tileN = parsePositiveInt(text.substr(x1 + 1, x2 - x1 - 1), "tile N");
  options.tileK = parsePositiveInt(text.substr(x2 + 1), "tile K");
}

}  // namespace

core::CodegenOptions parseManifestLine(const std::string& line) {
  core::CodegenOptions options;
  std::istringstream tokens(line.substr(0, line.find('#')));
  std::string token;
  while (tokens >> token) {
    if (token.rfind("tile=", 0) == 0) {
      parseTileShape(token.substr(5), options);
    } else if (token.rfind("strip=", 0) == 0) {
      options.stripFactor = parsePositiveInt(token.substr(6), "strip factor");
    } else if (token == "batch") {
      options.batched = true;
    } else if (token == "no-asm") {
      options.useAsm = false;
    } else if (token == "no-rma") {
      options.useRma = false;
      options.hideLatency = false;
    } else if (token == "no-hiding") {
      options.hideLatency = false;
    } else if (token == "fuse=relu") {
      options.fusion = core::FusionKind::kEpilogueRelu;
    } else if (token == "fuse=quantize") {
      options.fusion = core::FusionKind::kPrologueQuantize;
    } else if (token == "transA") {
      options.transposeA = true;
    } else if (token == "transB") {
      options.transposeB = true;
    } else {
      throwInput(strCat("unknown manifest token '", token,
                        "' (expected tile=MxNxK, strip=S, batch, no-asm, "
                        "no-rma, no-hiding, fuse=relu|quantize, transA, "
                        "transB)"));
    }
  }
  return options;
}

std::vector<core::CodegenOptions> parseWarmShapes(const std::string& shapes) {
  std::vector<core::CodegenOptions> requests;
  std::size_t begin = 0;
  while (begin <= shapes.size()) {
    std::size_t end = shapes.find(',', begin);
    if (end == std::string::npos) end = shapes.size();
    const std::string item = shapes.substr(begin, end - begin);
    if (!item.empty()) {
      core::CodegenOptions options;
      parseTileShape(item, options);
      requests.push_back(options);
    }
    begin = end + 1;
  }
  if (requests.empty())
    throwInput("--warm needs a comma-separated list of tile shapes MxNxK");
  return requests;
}

}  // namespace sw::service
