// Kernel-service tests: cache hit/miss accounting, LRU eviction under the
// entry budget, single-flight deduplication observed through a counting
// compiler stub, and the traced prints of a source compile.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "core/gemm_runner.h"
#include "core/pipeline.h"
#include "service/kernel_service.h"
#include "support/error.h"
#include "support/trace.h"

namespace sw::service {
namespace {

core::CodegenOptions tileVariant(std::int64_t tileM) {
  core::CodegenOptions options;
  options.tileM = tileM;
  return options;
}

/// Real compile wrapped in an invocation counter: the cache-behavior
/// assertions all reduce to "how many pipeline runs did this trigger".
struct CountingCompiler {
  std::atomic<int> calls{0};

  KernelService::CompileFn fn(const sunway::ArchConfig& arch) {
    return [this, arch](const core::CodegenOptions& options) {
      calls.fetch_add(1);
      return core::SwGemmCompiler(arch).compile(options);
    };
  }
};

TEST(KernelServiceTest, MemoryHitServesWithoutRecompile) {
  CountingCompiler counting;
  const sunway::ArchConfig arch;
  KernelService service(counting.fn(arch), arch, {});

  const KernelService::KernelPtr first = service.compile(tileVariant(64));
  const KernelService::KernelPtr second = service.compile(tileVariant(64));
  EXPECT_EQ(counting.calls.load(), 1);
  EXPECT_EQ(first.get(), second.get());  // same cached object

  service.compile(tileVariant(32));
  EXPECT_EQ(counting.calls.load(), 2);

  const KernelServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.memoryHits, 1);
  EXPECT_EQ(stats.compiles, 2);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_NEAR(stats.hitRate(), 1.0 / 3.0, 1e-12);
}

TEST(KernelServiceTest, LruEvictsByEntryBudget) {
  CountingCompiler counting;
  const sunway::ArchConfig arch;
  KernelServiceConfig config;
  config.maxEntries = 2;
  KernelService service(counting.fn(arch), arch, config);

  service.compile(tileVariant(64));
  service.compile(tileVariant(32));
  service.compile(tileVariant(16));  // evicts tileM=64
  EXPECT_EQ(service.stats().entries, 2u);
  EXPECT_EQ(service.stats().evictions, 1);

  // tileM=32 was refreshed less recently than 16 but more recently than
  // the evicted 64: re-requesting 64 recompiles, 32 still hits.
  service.compile(tileVariant(32));
  EXPECT_EQ(counting.calls.load(), 3);
  service.compile(tileVariant(64));
  EXPECT_EQ(counting.calls.load(), 4);
}

TEST(KernelServiceTest, SingleFlightDeduplicatesConcurrentRequests) {
  const sunway::ArchConfig arch;
  std::atomic<int> calls{0};
  std::mutex gate;
  std::condition_variable cv;
  bool release = false;

  // A compile stub that blocks until released, so every requester thread
  // provably arrives while the first compile is still in flight.
  KernelService::CompileFn blockingCompile =
      [&](const core::CodegenOptions& options) {
        calls.fetch_add(1);
        std::unique_lock<std::mutex> lock(gate);
        cv.wait(lock, [&] { return release; });
        return core::SwGemmCompiler(arch).compile(options);
      };
  KernelService service(blockingCompile, arch, {});

  constexpr int kThreads = 8;
  std::vector<KernelService::KernelPtr> results(kThreads);
  std::vector<ServeOutcome> outcomes(kThreads, ServeOutcome::kCompiled);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&, i] {
      results[i] = service.compile(tileVariant(64), &outcomes[i]);
    });

  // Wait until the leader entered the stub, give joiners time to pile up
  // on the in-flight future, then open the gate.
  while (calls.load() == 0) std::this_thread::yield();
  while (service.stats().shared < kThreads - 1) std::this_thread::yield();
  {
    std::lock_guard<std::mutex> lock(gate);
    release = true;
  }
  cv.notify_all();
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(calls.load(), 1) << "single-flight must collapse to one compile";
  int sharedCount = 0;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_NE(results[i], nullptr);
    EXPECT_EQ(results[i].get(), results[0].get());
    if (outcomes[i] == ServeOutcome::kShared) ++sharedCount;
  }
  EXPECT_EQ(sharedCount, kThreads - 1);
  EXPECT_EQ(service.stats().shared, kThreads - 1);
}

TEST(KernelServiceTest, BatchDeduplicatesAndReportsPerRequest) {
  CountingCompiler counting;
  const sunway::ArchConfig arch;
  KernelServiceConfig config;
  config.threads = 4;
  KernelService service(counting.fn(arch), arch, config);

  // 12 requests over 3 distinct keys: at most 3 pipeline runs.
  std::vector<core::CodegenOptions> requests;
  for (int i = 0; i < 12; ++i)
    requests.push_back(tileVariant(std::int64_t{16} << (i % 3)));
  const std::vector<KernelService::BatchResult> results =
      service.compileBatch(requests);

  ASSERT_EQ(results.size(), requests.size());
  EXPECT_EQ(counting.calls.load(), 3);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].error.empty()) << results[i].error;
    ASSERT_NE(results[i].kernel, nullptr);
    EXPECT_EQ(results[i].options.tileM, requests[i].tileM);
    EXPECT_GE(results[i].latencySeconds, 0.0);
  }
  // Identical keys resolve to the identical cached object.
  EXPECT_EQ(results[0].kernel.get(), results[3].kernel.get());
}

TEST(KernelServiceTest, BatchReportsPerRequestErrors) {
  const sunway::ArchConfig arch;
  KernelService service(arch, {});
  // Tiles too large for the 256 KB SPM must fail that request only.
  std::vector<core::CodegenOptions> requests{tileVariant(64),
                                             tileVariant(4096)};
  const std::vector<KernelService::BatchResult> results =
      service.compileBatch(requests);
  EXPECT_TRUE(results[0].error.empty());
  ASSERT_NE(results[0].kernel, nullptr);
  EXPECT_FALSE(results[1].error.empty());
  EXPECT_EQ(results[1].kernel, nullptr);
}

TEST(KernelServiceTest, ManifestParsing) {
  const core::CodegenOptions parsed = parseManifestLine(
      "tile=32x48x16 strip=4 batch no-asm fuse=relu transB  # comment");
  EXPECT_EQ(parsed.tileM, 32);
  EXPECT_EQ(parsed.tileN, 48);
  EXPECT_EQ(parsed.tileK, 16);
  EXPECT_EQ(parsed.stripFactor, 4);
  EXPECT_TRUE(parsed.batched);
  EXPECT_FALSE(parsed.useAsm);
  EXPECT_EQ(parsed.fusion, core::FusionKind::kEpilogueRelu);
  EXPECT_TRUE(parsed.transposeB);

  EXPECT_THROW(parseManifestLine("tile=32x48"), InputError);
  EXPECT_THROW(parseManifestLine("tile=0x48x16"), InputError);
  EXPECT_THROW(parseManifestLine("frobnicate"), InputError);

  const std::vector<core::CodegenOptions> warm =
      parseWarmShapes("64x64x32,32x32x32");
  ASSERT_EQ(warm.size(), 2u);
  EXPECT_EQ(warm[0].tileM, 64);
  EXPECT_EQ(warm[1].tileK, 32);
  EXPECT_THROW(parseWarmShapes(""), InputError);
  EXPECT_THROW(parseWarmShapes("64x64"), InputError);
}

TEST(KernelServiceTest, ManifestBatchKeepsLineNumbersForMalformedLines) {
  const sunway::ArchConfig arch;
  KernelServiceConfig config;
  config.threads = 2;
  KernelService service(arch, config);

  // Physical lines 1-2 are a comment and a blank; the four request lines
  // sit at lines 3-6 with the malformed ones in the middle.
  const std::string manifest =
      "# mixed manifest\n"
      "\n"
      "tile=64x64x32\n"
      "frobnicate\n"
      "tile=32x32x32 no-asm\n"
      "tile=0x48x16\n";
  const std::vector<KernelService::BatchResult> results =
      service.compileManifest(manifest);

  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(results[0].error.empty()) << results[0].error;
  ASSERT_NE(results[0].kernel, nullptr);
  EXPECT_EQ(results[0].options.tileM, 64);

  // A malformed line fails alone, carrying its 1-based physical line
  // number and the offending token — the valid lines around it compile.
  EXPECT_EQ(results[1].kernel, nullptr);
  EXPECT_NE(results[1].error.find("manifest line 4"), std::string::npos)
      << results[1].error;
  EXPECT_NE(results[1].error.find("frobnicate"), std::string::npos)
      << results[1].error;

  EXPECT_TRUE(results[2].error.empty()) << results[2].error;
  ASSERT_NE(results[2].kernel, nullptr);
  EXPECT_FALSE(results[2].options.useAsm);

  EXPECT_EQ(results[3].kernel, nullptr);
  EXPECT_NE(results[3].error.find("manifest line 6"), std::string::npos)
      << results[3].error;
}

TEST(KernelServiceTest, FailedCompileClearsSingleFlightForRetry) {
  // A compile that throws must erase its in-flight entry: the next request
  // for the same key retries the pipeline instead of joining a dead
  // shared future forever.
  std::atomic<int> calls{0};
  const sunway::ArchConfig arch;
  KernelService service(
      [&calls, arch](const core::CodegenOptions& options) {
        if (calls.fetch_add(1) == 0)
          throw TransientError("backend hiccup on the first attempt");
        return core::SwGemmCompiler(arch).compile(options);
      },
      arch, {});

  EXPECT_THROW(service.compile(tileVariant(64)), TransientError);
  const KernelService::KernelPtr kernel = service.compile(tileVariant(64));
  ASSERT_NE(kernel, nullptr);
  EXPECT_EQ(calls.load(), 2);  // retried, not served the stale failure
}

TEST(KernelServiceTest, FailedSearchClearsSingleFlightForRetry) {
  const sunway::ArchConfig arch;
  KernelService service(arch, {});
  std::atomic<int> searches{0};
  service.setSearchFnForTest(
      [&searches](const core::CodegenOptions&, const sunway::ArchConfig&,
                  const core::GemmProblem&, const tuning::TunerConfig&) {
        if (searches.fetch_add(1) == 0)
          throw TransientError("mesh unavailable during the search");
        std::vector<tuning::CandidateResult> candidates(1);
        candidates[0].feasible = true;
        candidates[0].candidate.tileM = 32;
        candidates[0].candidate.tileN = 32;
        candidates[0].candidate.tileK = 32;
        candidates[0].estimatedGflops = 123.0;
        return tuning::ScheduleSearchResult(std::move(candidates));
      });

  const core::GemmProblem problem{96, 96, 96};
  EXPECT_THROW(service.resolveSchedule(core::CodegenOptions{}, problem),
               TransientError);
  const KernelService::ResolvedSchedule resolved =
      service.resolveSchedule(core::CodegenOptions{}, problem);
  EXPECT_EQ(resolved.options.tileM, 32);
  EXPECT_EQ(searches.load(), 2);  // the failed search did not wedge the key
}

TEST(KernelServiceTest, CompileSourceTracesEveryPrint) {
  // A miss prints once, under the source's function name; a hit prints
  // nothing.  Each print is a codegen.print span.
  const sunway::ArchConfig arch;
  KernelService service(arch, {});
  const std::string source = R"(
void my_gemm(long M, long N, long K, double alpha, double beta,
             double A[M][K], double B[K][N], double C[M][N]) {
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      C[i][j] = beta * C[i][j];
  for (long i = 0; i < M; i++)
    for (long j = 0; j < N; j++)
      for (long k = 0; k < K; k++)
        C[i][j] = C[i][j] + alpha * A[i][k] * B[k][j];
})";
  trace::Tracer& tracer = trace::Tracer::global();
  const auto tracedPrints = [&] {
    tracer.clear();
    tracer.enable();
    const core::CompiledKernel kernel = service.compileSource(source);
    tracer.disable();
    const std::vector<trace::TraceEvent> events = tracer.snapshot();
    tracer.clear();
    EXPECT_EQ(kernel.program.name, "my_gemm");
    return std::count_if(events.begin(), events.end(),
                         [](const trace::TraceEvent& event) {
                           return event.name == "codegen.print";
                         });
  };
  EXPECT_EQ(tracedPrints(), 1);
  EXPECT_EQ(tracedPrints(), 0);

  // The served kernel is the direct compile's, byte for byte, and a spec
  // request of the same options is its own entry, under the spec's name.
  const core::CompiledKernel served = service.compileSource(source);
  const core::CompiledKernel direct =
      core::SwGemmCompiler(arch).compileSource(source);
  EXPECT_EQ(served.cpeSource, direct.cpeSource);
  EXPECT_EQ(served.mpeSource, direct.mpeSource);
  const KernelService::KernelPtr spec = service.compile(served.options);
  EXPECT_EQ(spec->program.name,
            core::SwGemmCompiler(arch).compile(served.options).program.name);
  EXPECT_NE(spec->program.name, "my_gemm");
  EXPECT_EQ(service.stats().compiles, 2);
}

TEST(KernelServiceTest, EstimatorRungZeroFillsC) {
  // When every mesh rung fails, the terminal estimator rung must not leak
  // the last failed attempt's partial writes: C is zero-filled.
  const sunway::ArchConfig arch;
  KernelService service(arch, {});
  service.setRunFnForTest(
      [](const core::CompiledKernel&, const core::GemmProblem&,
         std::span<const double>, std::span<const double>,
         std::span<double> c, const core::FunctionalRunConfig&)
          -> rt::RunOutcome {
        // Simulate a mesh that scribbles into C before dying.
        if (!c.empty()) c[0] = 1234.5;
        throw TransientError("mesh run failed");
      });

  const core::CodegenOptions options;
  const KernelService::KernelPtr kernel = service.compile(options);
  const core::PaddedShape shape =
      core::padShape(1, 1, 1, kernel->options, service.arch());
  const core::GemmProblem problem{shape.m, shape.n, shape.k, 1};
  const std::vector<double> a(
      static_cast<std::size_t>(shape.m * shape.k), 1.0);
  const std::vector<double> b(
      static_cast<std::size_t>(shape.k * shape.n), 1.0);
  std::vector<double> c(static_cast<std::size_t>(shape.m * shape.n), 7.0);

  const KernelService::ResilientRunResult result =
      service.runResilient(options, problem, a, b, c);
  EXPECT_TRUE(result.usedEstimator);
  EXPECT_FALSE(result.degradations.empty());
  for (const double v : c) ASSERT_EQ(v, 0.0);
  EXPECT_GT(result.outcome.gflops, 0.0);  // timing is still meaningful
}

}  // namespace
}  // namespace sw::service
