// Fig.13 — performance breakdown on square shapes: the four optimisation
// levels of §8.1 (DMA-only baseline, + assembly micro-kernel, + RMA
// broadcast, + memory latency hiding) next to the xMath library.
//
// Paper reference points: baseline ~84.89 GFLOPS flat; +asm 2.83x;
// +RMA 4.38x on top; +hiding 1.76x more (23.72x over baseline); the four
// leftmost (small-K) shapes stay under 1800 GFLOPS; xMath averages
// ~1746.97 and collapses on the large non-power-of-two cubes.
#include "bench_common.h"

namespace sw::bench {
namespace {

const std::vector<Shape>& squares() {
  static const std::vector<Shape> shapes = [] {
    std::vector<Shape> s;
    for (std::int64_t d : {1024, 1536, 2048, 2560, 3072, 3584, 4096, 5120,
                           6144, 7168, 7680, 8192, 10240, 15360})
      s.push_back(Shape{d, d, d});
    return s;
  }();
  return shapes;
}

void printTable() {
  KernelCache cache;
  xmath::XMathModel xm(cache.arch());
  const double peak = cache.arch().peakFlops() / 1e9;

  std::printf("Fig.13: GEMM performance breakdown, square shapes "
              "(GFLOPS; model peak %.1f)\n", peak);
  printRule(96);
  std::printf("%-18s %14s %10s %10s %10s %10s\n", "shape", "baseline(DMA)",
              "+asm", "+RMA", "+hiding", "xMath");
  printRule(96);

  std::vector<double> sums(5, 0.0);
  for (const Shape& shape : squares()) {
    std::vector<double> row;
    for (const auto& [label, options] : breakdownVariants())
      row.push_back(cache.gflops(options, shape));
    row.push_back(xm.gflops(shape.m, shape.n, shape.k));
    std::printf("%-18s %14.2f %10.2f %10.2f %10.2f %10.2f\n",
                shape.label().c_str(), row[0], row[1], row[2], row[3],
                row[4]);
    for (std::size_t i = 0; i < row.size(); ++i) sums[i] += row[i];
  }
  printRule(96);
  const double count = static_cast<double>(squares().size());
  std::printf("%-18s %14.2f %10.2f %10.2f %10.2f %10.2f\n", "mean",
              sums[0] / count, sums[1] / count, sums[2] / count,
              sums[3] / count, sums[4] / count);
  std::printf("\nstep factors: +asm %.2fx, +RMA %.2fx, +hiding %.2fx "
              "(paper: 2.83x, 4.38x, 1.76x)\n",
              sums[1] / sums[0], sums[2] / sums[1], sums[3] / sums[2]);
  std::printf("overall vs baseline: %.2fx (paper: 23.72x)\n",
              sums[3] / sums[0]);
  std::printf("ours vs xMath: %+.2f%% (paper: +9.62%% on squares)\n",
              (sums[3] / sums[4] - 1.0) * 100.0);
  std::printf("best shape fraction of peak: %.2f%% (paper: 90.14%%)\n\n",
              100.0 * cache.gflops(breakdownVariants()[3].second,
                                   squares().back()) /
                  peak);
}

void benchVariant(benchmark::State& state, const std::string& caseName,
                  const core::CodegenOptions& options, const Shape& shape) {
  static KernelCache cache;
  rt::RunOutcome outcome;
  for (auto _ : state) outcome = cache.estimate(options, shape);
  exportRunCounters(state, outcome, cache.get(options).program, cache.arch());
  exportCaseReport(caseName, outcome);
}

}  // namespace
}  // namespace sw::bench

int main(int argc, char** argv) {
  sw::bench::printTable();
  for (const auto& [label, options] : sw::bench::breakdownVariants()) {
    for (const sw::bench::Shape& shape : sw::bench::squares()) {
      const std::string caseName =
          std::string("Fig13/") + label + "/" + shape.label();
      benchmark::RegisterBenchmark(
          caseName.c_str(),
          [caseName, options = options, shape](benchmark::State& state) {
            sw::bench::benchVariant(state, caseName, options, shape);
          });
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
