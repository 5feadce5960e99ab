// Tests of the persistent tuning database (src/tuning/tuning_db.*) and
// its service integration (KernelService::resolveSchedule): round-trip,
// corrupt/truncated/stale recovery, searching without a database, and
// single-flight deduplication of concurrent searches.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "service/kernel_service.h"
#include "support/error.h"
#include "support/format.h"
#include "tuning/tuning_db.h"

namespace sw::tuning {
namespace {

namespace fs = std::filesystem;
using service::KernelService;
using service::KernelServiceConfig;

/// Fresh per-test scratch directory under the gtest temp root.
std::string scratchDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("swk_tune_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

TunedScheduleRecord sampleRecord() {
  TunedScheduleRecord record;
  record.schedule.tileM = 32;
  record.schedule.tileN = 16;
  record.schedule.tileK = 16;
  record.schedule.stripFactor = 8;
  record.schedule.bufferDepth = 2;
  record.schedule.edgeTiles = true;
  record.gflops = 19.4375;
  record.measuredGflops = 19.52;
  record.verdict = "latency-bound";
  record.candidatesEnumerated = 336;
  record.candidatesFeasible = 192;
  record.candidatesValidated = 3;
  record.searchSeconds = 0.27;
  return record;
}

std::string sampleKey() {
  return canonicalTuneKey(core::CodegenOptions{}, sunway::ArchConfig{},
                          core::GemmProblem{257, 63, 65});
}

// --- the database itself ------------------------------------------------

TEST(TuningDb, RoundTripsEveryField) {
  TuningDb db(scratchDir("roundtrip"));
  const std::string key = sampleKey();
  const TunedScheduleRecord stored = sampleRecord();
  db.store(key, stored);
  ASSERT_TRUE(fs::exists(db.pathForKey(key)));

  const std::optional<TunedScheduleRecord> loaded = db.lookup(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->schedule.tileM, 32);
  EXPECT_EQ(loaded->schedule.tileN, 16);
  EXPECT_EQ(loaded->schedule.tileK, 16);
  EXPECT_EQ(loaded->schedule.stripFactor, 8);
  EXPECT_EQ(loaded->schedule.bufferDepth, 2);
  EXPECT_TRUE(loaded->schedule.edgeTiles);
  EXPECT_DOUBLE_EQ(loaded->gflops, stored.gflops);
  EXPECT_DOUBLE_EQ(loaded->measuredGflops, stored.measuredGflops);
  EXPECT_EQ(loaded->verdict, "latency-bound");
  EXPECT_EQ(loaded->candidatesEnumerated, 336);
  EXPECT_EQ(loaded->candidatesFeasible, 192);
  EXPECT_EQ(loaded->candidatesValidated, 3);
  EXPECT_DOUBLE_EQ(loaded->searchSeconds, 0.27);
  EXPECT_EQ(db.stats().hits, 1);
  EXPECT_EQ(db.stats().stores, 1);
}

TEST(TuningDb, EmptyRootDisablesPersistence) {
  TuningDb db("");
  EXPECT_TRUE(db.pathForKey(sampleKey()).empty());
  db.store(sampleKey(), sampleRecord());  // no-op, no throw
  EXPECT_FALSE(db.lookup(sampleKey()).has_value());
  EXPECT_EQ(db.stats().stores, 0);
}

TEST(TuningDb, TruncatedEntryIsRemovedAndReportedAsMiss) {
  TuningDb db(scratchDir("truncated"));
  const std::string key = sampleKey();
  db.store(key, sampleRecord());
  const std::string path = db.pathForKey(key);

  // Chop the record mid-field: the tolerant scanner must classify it as
  // corrupt, remove the file, and report a miss so the caller re-tunes.
  std::string body;
  {
    std::ifstream in(path, std::ios::binary);
    std::getline(in, body);
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body.substr(0, body.size() / 3);
  }
  EXPECT_FALSE(db.lookup(key).has_value());
  EXPECT_EQ(db.stats().corrupt, 1);
  EXPECT_FALSE(fs::exists(path));

  // The re-tune path stores again and the entry is healthy.
  db.store(key, sampleRecord());
  EXPECT_TRUE(db.lookup(key).has_value());
}

TEST(TuningDb, KeyMismatchCountsAsCorrupt) {
  // A foreign record landing under this key's digest (collision, renamed
  // file, copied directory) must not be served.
  TuningDb db(scratchDir("mismatch"));
  const std::string key = sampleKey();
  const std::string otherKey =
      canonicalTuneKey(core::CodegenOptions{}, sunway::ArchConfig{},
                       core::GemmProblem{100, 100, 100});
  db.store(key, sampleRecord());
  fs::create_directories(fs::path(db.pathForKey(otherKey)).parent_path());
  fs::rename(db.pathForKey(key), db.pathForKey(otherKey));
  EXPECT_FALSE(db.lookup(otherKey).has_value());
  EXPECT_EQ(db.stats().corrupt, 1);
  EXPECT_FALSE(fs::exists(db.pathForKey(otherKey)));
}

TEST(TuningDb, VersionSkewIsStaleNotCorrupt) {
  TuningDb db(scratchDir("stale"));
  const std::string key = sampleKey();
  db.store(key, sampleRecord());
  const std::string path = db.pathForKey(key);

  // Rewrite the entry as a future schema version: expected after an
  // upgrade, so it is counted apart from corruption — but still re-tuned.
  std::string body;
  {
    std::ifstream in(path, std::ios::binary);
    std::getline(in, body);
  }
  const std::string needle =
      strCat("\"schema_version\":", kTuningDbVersion);
  const std::size_t pos = body.find(needle);
  ASSERT_NE(pos, std::string::npos);
  body.replace(pos, needle.size(), "\"schema_version\":99");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << body;
  }
  EXPECT_FALSE(db.lookup(key).has_value());
  EXPECT_EQ(db.stats().stale, 1);
  EXPECT_EQ(db.stats().corrupt, 0);
  EXPECT_FALSE(fs::exists(path));
}

TEST(TuningDb, OutOfRangeScheduleIsRejected) {
  TuningDb db(scratchDir("range"));
  const std::string key = sampleKey();
  TunedScheduleRecord bad = sampleRecord();
  bad.schedule.bufferDepth = 7;  // renderable, but no valid schedule
  db.store(key, bad);
  EXPECT_FALSE(db.lookup(key).has_value());
  EXPECT_EQ(db.stats().corrupt, 1);
}

TEST(TuningDb, TuneKeySeparatesShapesAndRequests) {
  const sunway::ArchConfig arch;
  const core::CodegenOptions base;
  const std::string a =
      canonicalTuneKey(base, arch, core::GemmProblem{100, 100, 100});
  const std::string b =
      canonicalTuneKey(base, arch, core::GemmProblem{100, 100, 101});
  EXPECT_NE(a, b);
  core::CodegenOptions noAsm = base;
  noAsm.useAsm = false;
  EXPECT_NE(a, canonicalTuneKey(noAsm, arch,
                                core::GemmProblem{100, 100, 100}));
  sunway::ArchConfig smallSpm = arch;
  smallSpm.spmBytes /= 2;
  EXPECT_NE(a, canonicalTuneKey(base, smallSpm,
                                core::GemmProblem{100, 100, 100}));
}

// --- service integration ------------------------------------------------

/// A counting stand-in for the two-stage search: returns a fixed winner
/// and records how many times the service actually let a search through.
KernelService::SearchFn countingSearch(std::atomic<int>* calls) {
  return [calls](const core::CodegenOptions&, const sunway::ArchConfig&,
                 const core::GemmProblem&, const TunerConfig&) {
    calls->fetch_add(1);
    std::vector<CandidateResult> candidates(1);
    candidates[0].feasible = true;
    candidates[0].candidate.tileM = 32;
    candidates[0].candidate.tileN = 32;
    candidates[0].candidate.tileK = 32;
    candidates[0].estimatedGflops = 123.0;
    ScheduleSearchResult result(std::move(candidates));
    result.searchSeconds = 0.001;
    return result;
  };
}

TEST(ResolveSchedule, SecondCallServesFromTheTuningDb) {
  const sunway::ArchConfig arch;
  KernelServiceConfig config;
  config.tuningDir = scratchDir("resolve_hit");
  const core::GemmProblem problem{96, 96, 96};

  std::atomic<int> searches{0};
  KernelService service(arch, config);
  service.setSearchFnForTest(countingSearch(&searches));

  const KernelService::ResolvedSchedule first =
      service.resolveSchedule(core::CodegenOptions{}, problem);
  EXPECT_EQ(first.source, KernelService::ResolvedSchedule::Source::kSearch);
  EXPECT_EQ(first.options.tileM, 32);
  EXPECT_EQ(searches.load(), 1);

  // A fresh service instance (new process, same directory) must serve the
  // decision from disk without searching again.
  KernelService reloaded(arch, config);
  reloaded.setSearchFnForTest(countingSearch(&searches));
  const KernelService::ResolvedSchedule second =
      reloaded.resolveSchedule(core::CodegenOptions{}, problem);
  EXPECT_EQ(second.source, KernelService::ResolvedSchedule::Source::kDiskHit);
  EXPECT_EQ(second.options.tileM, 32);
  EXPECT_DOUBLE_EQ(second.record.gflops, 123.0);
  EXPECT_EQ(searches.load(), 1);
  EXPECT_EQ(reloaded.stats().tuneDbHits, 1);
  EXPECT_EQ(reloaded.stats().tuneSearches, 0);
}

TEST(ResolveSchedule, NeverStoresAScheduleWhoseValidationFailed) {
  // The search's top estimate threw in its mesh run, at a proxy shape
  // (so the estimate ranks): the service must store the runner-up.
  const sunway::ArchConfig arch;
  KernelServiceConfig config;
  config.tuningDir = scratchDir("resolve_failed_validation");
  KernelService service(arch, config);
  service.setSearchFnForTest([](const core::CodegenOptions&,
                                const sunway::ArchConfig&,
                                const core::GemmProblem&, const TunerConfig&) {
    std::vector<CandidateResult> candidates(2);
    candidates[0].feasible = true;
    candidates[0].candidate.tileM = 128;
    candidates[0].estimatedGflops = 500.0;
    candidates[0].validationFailed = true;
    candidates[0].note = "validation failed: mesh deadlock";
    candidates[1].feasible = true;
    candidates[1].candidate.tileM = 32;
    candidates[1].estimatedGflops = 100.0;
    candidates[1].validated = true;
    candidates[1].measuredGflops = 90.0;
    return ScheduleSearchResult(std::move(candidates));
  });
  const core::GemmProblem problem{96, 96, 96};
  const KernelService::ResolvedSchedule resolved =
      service.resolveSchedule(core::CodegenOptions{}, problem);
  EXPECT_EQ(resolved.options.tileM, 32);
  EXPECT_DOUBLE_EQ(resolved.record.gflops, 100.0);

  KernelService reloaded(arch, config);
  const KernelService::ResolvedSchedule stored =
      reloaded.resolveSchedule(core::CodegenOptions{}, problem);
  EXPECT_EQ(stored.source, KernelService::ResolvedSchedule::Source::kDiskHit);
  EXPECT_EQ(stored.options.tileM, 32);
}

TEST(ResolveSchedule, NoDirectoriesStillSearches) {
  std::atomic<int> searches{0};
  KernelService service(sunway::ArchConfig{}, KernelServiceConfig{});
  service.setSearchFnForTest(countingSearch(&searches));
  const KernelService::ResolvedSchedule resolved =
      service.resolveSchedule(core::CodegenOptions{}, {96, 96, 96});
  EXPECT_EQ(resolved.source,
            KernelService::ResolvedSchedule::Source::kSearch);
  EXPECT_EQ(searches.load(), 1);
  // No persistence: the same service searches again next time only if the
  // key is not in flight — there is no memory tier for schedules, so a
  // second call re-searches (and that is the documented contract).
  service.resolveSchedule(core::CodegenOptions{}, {96, 96, 96});
  EXPECT_EQ(searches.load(), 2);
  EXPECT_TRUE(service
                  .tuningDbPath(canonicalTuneKey(core::CodegenOptions{},
                                                 sunway::ArchConfig{},
                                                 {96, 96, 96}))
                  .empty());
}

TEST(ResolveSchedule, ConcurrentCallsSingleFlightTheSearch) {
  const sunway::ArchConfig arch;
  KernelServiceConfig config;
  config.tuningDir = scratchDir("resolve_flight");

  std::atomic<int> searches{0};
  KernelService service(arch, config);
  // A slow search so every thread arrives while the leader is inside it.
  service.setSearchFnForTest(
      [&searches](const core::CodegenOptions&, const sunway::ArchConfig&,
                  const core::GemmProblem&, const TunerConfig&) {
        searches.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        std::vector<CandidateResult> candidates(1);
        candidates[0].feasible = true;
        candidates[0].estimatedGflops = 7.0;
        return ScheduleSearchResult(std::move(candidates));
      });

  constexpr int kThreads = 8;
  std::atomic<int> sharedCount{0};
  std::vector<std::thread> pool;
  for (int i = 0; i < kThreads; ++i) {
    pool.emplace_back([&] {
      const KernelService::ResolvedSchedule resolved =
          service.resolveSchedule(core::CodegenOptions{}, {96, 96, 96});
      EXPECT_DOUBLE_EQ(resolved.record.gflops, 7.0);
      if (resolved.source ==
          KernelService::ResolvedSchedule::Source::kShared)
        sharedCount.fetch_add(1);
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(searches.load(), 1);
  EXPECT_EQ(sharedCount.load(), kThreads - 1);
  EXPECT_EQ(service.stats().tuneShared, kThreads - 1);
  EXPECT_EQ(service.stats().tuneSearches, 1);
}

TEST(ResolveSchedule, SearchFailurePropagatesToEveryWaiter) {
  KernelService service(sunway::ArchConfig{}, KernelServiceConfig{});
  service.setSearchFnForTest(
      [](const core::CodegenOptions&, const sunway::ArchConfig&,
         const core::GemmProblem&, const TunerConfig&) -> ScheduleSearchResult {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throwInput("no feasible schedule candidate (test)");
      });
  std::atomic<int> failures{0};
  std::vector<std::thread> pool;
  for (int i = 0; i < 4; ++i) {
    pool.emplace_back([&] {
      try {
        service.resolveSchedule(core::CodegenOptions{}, {96, 96, 96});
      } catch (const sw::InputError&) {
        failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(failures.load(), 4);
}

TEST(ResolveSchedule, CorruptDbEntryTriggersReSearch) {
  const sunway::ArchConfig arch;
  KernelServiceConfig config;
  config.tuningDir = scratchDir("resolve_corrupt");
  const core::GemmProblem problem{96, 96, 96};

  std::atomic<int> searches{0};
  KernelService service(arch, config);
  service.setSearchFnForTest(countingSearch(&searches));
  service.resolveSchedule(core::CodegenOptions{}, problem);
  ASSERT_EQ(searches.load(), 1);

  const std::string path = service.tuningDbPath(
      canonicalTuneKey(core::CodegenOptions{}, arch, problem));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "{\"schema_";  // truncated garbage
  }
  KernelService reloaded(arch, config);
  reloaded.setSearchFnForTest(countingSearch(&searches));
  const KernelService::ResolvedSchedule resolved =
      reloaded.resolveSchedule(core::CodegenOptions{}, problem);
  EXPECT_EQ(resolved.source,
            KernelService::ResolvedSchedule::Source::kSearch);
  EXPECT_EQ(searches.load(), 2);
  // And the repaired entry now serves from disk.
  KernelService third(arch, config);
  third.setSearchFnForTest(countingSearch(&searches));
  EXPECT_EQ(third.resolveSchedule(core::CodegenOptions{}, problem).source,
            KernelService::ResolvedSchedule::Source::kDiskHit);
  EXPECT_EQ(searches.load(), 2);
}

TEST(ResolveSchedule, EndToEndRealSearchCompilesByteIdentically) {
  // No test double: a real (estimator-only, trimmed-space) search through
  // the service, persisted, re-resolved from disk, and both resolutions
  // must compile to byte-identical kernels — the property the CI tuning
  // smoke pins from the CLI.
  const sunway::ArchConfig arch;
  KernelServiceConfig config;
  config.tuningDir = scratchDir("resolve_e2e");
  config.tuner.validateTopN = 0;
  config.tuner.space.tileMN = {32, 64};
  config.tuner.space.tileK = {32};
  config.tuner.space.stripFactors = {8};
  const core::GemmProblem problem{96, 96, 96};

  KernelService first(arch, config);
  const KernelService::ResolvedSchedule a =
      first.resolveSchedule(core::CodegenOptions{}, problem);
  EXPECT_EQ(a.source, KernelService::ResolvedSchedule::Source::kSearch);
  const KernelService::KernelPtr kernelA = first.compile(a.options);

  KernelService second(arch, config);
  const KernelService::ResolvedSchedule b =
      second.resolveSchedule(core::CodegenOptions{}, problem);
  EXPECT_EQ(b.source, KernelService::ResolvedSchedule::Source::kDiskHit);
  const KernelService::KernelPtr kernelB = second.compile(b.options);

  EXPECT_EQ(kernelA->cpeSource, kernelB->cpeSource);
  EXPECT_EQ(kernelA->mpeSource, kernelB->mpeSource);
}

}  // namespace
}  // namespace sw::tuning
