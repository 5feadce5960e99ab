// Kernel-service benchmark: what the cache and the batch thread pool buy.
//
// Prints a serving-latency table first (cold pipeline run vs warm
// in-memory hits, sequential vs pooled batch), then registers
// google-benchmark cases whose counters carry the same quantities
// ("cold_ms", "warm_ms", "speedup", "cache_hit_rate") so CI harnesses can
// track them.  Targets: a warm hit ≥ 10x faster than a cold compile, and a
// 16-request mixed batch ≥ 4x faster on an 8-thread pool than sequential
// (given ≥ 8 hardware threads; the table prints the host's concurrency so
// a capped result is interpretable) — with byte-identical kernels either
// way.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "service/kernel_service.h"

namespace sw::bench {
namespace {

double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// 16 distinct option variants the SPM comfortably fits: tiles crossed
/// with micro-kernel / pipelining / strip-mining toggles.
std::vector<core::CodegenOptions> mixedBatch() {
  std::vector<core::CodegenOptions> requests;
  for (int i = 0; i < 16; ++i) {
    core::CodegenOptions options;
    options.tileM = std::int64_t{16} << (i % 3);
    options.tileN = options.tileM;
    options.tileK = (i / 3) % 2 == 0 ? 32 : 16;
    options.useAsm = (i / 6) % 2 == 0;
    if (i >= 12) options.stripFactor = 4;
    requests.push_back(options);
  }
  return requests;
}

service::KernelService makeService(int threads) {
  service::KernelServiceConfig config;
  config.threads = threads;
  return service::KernelService(sunway::ArchConfig{}, config);
}

double batchSeconds(int threads, const std::vector<core::CodegenOptions>& rq,
                    std::vector<core::CompiledKernel>* kernels = nullptr) {
  service::KernelService service = makeService(threads);
  const double start = nowSeconds();
  const auto results = service.compileBatch(rq);
  const double elapsed = nowSeconds() - start;
  if (kernels != nullptr)
    for (const auto& r : results)
      if (r.kernel != nullptr) kernels->push_back(*r.kernel);
  return elapsed;
}

void printServingTable() {
  const core::CodegenOptions options;  // the default (paper) kernel

  // Cold: a fresh service, nothing cached anywhere.
  service::KernelService service = makeService(1);
  double t0 = nowSeconds();
  service.compile(options);
  const double coldMs = (nowSeconds() - t0) * 1e3;

  // Warm: the same key again, served from the in-memory LRU.
  t0 = nowSeconds();
  for (int i = 0; i < 100; ++i) service.compile(options);
  const double warmMs = (nowSeconds() - t0) * 1e3 / 100.0;

  // Batch: 16 mixed shapes, sequential vs 8-thread pool, each from cold.
  const std::vector<core::CodegenOptions> requests = mixedBatch();
  std::vector<core::CompiledKernel> sequentialKernels, pooledKernels;
  const double seqMs = batchSeconds(1, requests, &sequentialKernels) * 1e3;
  const double poolMs = batchSeconds(8, requests, &pooledKernels) * 1e3;
  bool identical = sequentialKernels.size() == pooledKernels.size();
  for (std::size_t i = 0; identical && i < sequentialKernels.size(); ++i)
    identical = sequentialKernels[i].cpeSource == pooledKernels[i].cpeSource &&
                sequentialKernels[i].mpeSource == pooledKernels[i].mpeSource;

  std::printf("Kernel service: serving latency per request\n");
  printRule(62);
  std::printf("%-34s %12s %12s\n", "path", "ms/request", "speedup");
  std::printf("%-34s %12.3f %12s\n", "cold compile (full pipeline)", coldMs,
              "1x");
  std::printf("%-34s %12.4f %11.0fx\n", "warm hit (in-memory LRU)", warmMs,
              coldMs / warmMs);
  printRule(62);
  std::printf("batch of %zu mixed shapes (%u hardware threads available):\n",
              requests.size(), std::thread::hardware_concurrency());
  std::printf("%-34s %12.3f %12s\n", "  sequential (1 thread)", seqMs, "1x");
  std::printf("%-34s %12.3f %11.1fx   kernels byte-identical: %s\n",
              "  pooled (8 threads)", poolMs, seqMs / poolMs,
              identical ? "yes" : "NO");
  std::printf("\n");
}

void BM_ColdCompile(benchmark::State& state) {
  const core::CodegenOptions options;
  for (auto _ : state) {
    service::KernelService service = makeService(1);
    benchmark::DoNotOptimize(service.compile(options));
  }
}
BENCHMARK(BM_ColdCompile)->Unit(benchmark::kMillisecond);

void BM_WarmCompile(benchmark::State& state) {
  const core::CodegenOptions options;
  service::KernelService service = makeService(1);
  double t0 = nowSeconds();
  service.compile(options);  // populate
  const double coldMs = (nowSeconds() - t0) * 1e3;
  t0 = nowSeconds();
  for (auto _ : state) benchmark::DoNotOptimize(service.compile(options));
  const double warmMs =
      (nowSeconds() - t0) * 1e3 / static_cast<double>(state.iterations());
  state.counters["cache_hit_rate"] = service.stats().hitRate();
  state.counters["cold_ms"] = coldMs;
  state.counters["warm_ms"] = warmMs;
  state.counters["speedup"] = warmMs > 0.0 ? coldMs / warmMs : 0.0;
}
BENCHMARK(BM_WarmCompile)->Unit(benchmark::kMicrosecond);

void BM_Batch16(benchmark::State& state) {
  const std::vector<core::CodegenOptions> requests = mixedBatch();
  const int threads = static_cast<int>(state.range(0));
  double hitRate = 0.0;
  for (auto _ : state) {
    service::KernelService service = makeService(threads);
    const auto results = service.compileBatch(requests);
    benchmark::DoNotOptimize(results);
    hitRate = service.stats().hitRate();
  }
  state.counters["threads"] = threads;
  state.counters["hardware_threads"] = std::thread::hardware_concurrency();
  state.counters["cache_hit_rate"] = hitRate;
}
BENCHMARK(BM_Batch16)->Arg(1)->Arg(8)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sw::bench

int main(int argc, char** argv) {
  sw::bench::printServingTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
