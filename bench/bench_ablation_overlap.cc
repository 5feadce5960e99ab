// Ablation — memory-latency-hiding benefit as a function of K (§6.1/§8.1):
// the number of DMA overlaps is ceil(K/256) - 1 and the number of RMA
// overlaps per outer iteration is 7, so small K benefits little and the
// speedup saturates as K grows.  This reproduces the explanation the paper
// gives for the weak leftmost shapes of Fig.13.
#include "bench_common.h"

namespace sw::bench {
namespace {

void printTable() {
  KernelCache cache;
  const core::CodegenOptions with = variantOptions(true, true, true);
  const core::CodegenOptions without = variantOptions(true, true, false);

  std::printf("Ablation: latency-hiding speedup vs K (M = N = 4096)\n");
  printRule(110);
  std::printf("%8s %10s %12s %12s %10s %12s %12s %12s %12s\n", "K",
              "overlaps", "hidden", "unhidden", "speedup", "expo(hid)",
              "expo(unh)", "ovlp(hid)", "ovlp(unh)");
  printRule(110);
  // Exposed DMA + RMA: the share of aggregate CPE time spent waiting on
  // communication the schedule did not hide.
  const auto exposed = [](const rt::RunOutcome& o) {
    return o.report.attribution.exposedDmaPct +
           o.report.attribution.exposedRmaPct;
  };
  for (std::int64_t k : {256, 512, 1024, 2048, 4096, 8192, 16384, 32768}) {
    const Shape shape{4096, 4096, k};
    auto fast = cache.estimate(with, shape);
    auto slow = cache.estimate(without, shape);
    std::printf(
        "%8ld %10ld %12.2f %12.2f %9.3fx %11.1f%% %11.1f%% %11.1f%% "
        "%11.1f%%\n",
        static_cast<long>(k), static_cast<long>(k / 256 - 1), fast.gflops,
        slow.gflops, fast.gflops / slow.gflops, exposed(fast), exposed(slow),
        fast.report.overlapPct, slow.report.overlapPct);
  }
  std::printf("\n(the speedup rises with the overlap count "
              "ceil(K/256) - 1 and saturates; the expo columns show the "
              "exposed DMA + RMA latency the pipeline removes — "
              "paper §8.1/§6)\n\n");
}

}  // namespace
}  // namespace sw::bench

int main(int argc, char** argv) {
  sw::bench::printTable();
  for (std::int64_t k : {256L, 1024L, 4096L, 16384L}) {
    for (bool hide : {true, false}) {
      const std::string caseName = "AblationOverlap/K" + std::to_string(k) +
                                   (hide ? "/hiding" : "/no-hiding");
      benchmark::RegisterBenchmark(
          caseName.c_str(), [caseName, k, hide](benchmark::State& state) {
            static sw::bench::KernelCache cache;
            sw::rt::RunOutcome outcome;
            for (auto _ : state)
              outcome =
                  cache.estimate(sw::bench::variantOptions(true, true, hide),
                                 sw::bench::Shape{4096, 4096, k});
            sw::bench::exportRunCounters(
                state, outcome,
                cache.get(sw::bench::variantOptions(true, true, hide)).program,
                cache.arch());
            sw::bench::exportCaseReport(caseName, outcome);
          });
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
