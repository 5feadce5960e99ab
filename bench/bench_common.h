// Shared helpers for the figure-reproduction benchmarks.
//
// Every bench binary prints the paper-style table first (the rows/series
// of the corresponding figure), then registers google-benchmark cases so
// the harness also measures the host-side cost of the timing simulation.
// Simulated performance is reported through benchmark counters
// ("sim_gflops", "pct_peak"); wall time of a case is the cost of running
// the timing model itself, not of the simulated machine.
#pragma once

#include <benchmark/benchmark.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/compiler.h"
#include "core/gemm_runner.h"
#include "xmath/xmath.h"

namespace sw::bench {

struct Shape {
  std::int64_t m, n, k;
  [[nodiscard]] std::string label() const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%ldx%ldx%ld", static_cast<long>(m),
                  static_cast<long>(n), static_cast<long>(k));
    return buf;
  }
};

/// Compiles each optimisation level once and serves cached kernels.
class KernelCache {
 public:
  const core::CompiledKernel& get(const core::CodegenOptions& options) {
    const std::string key = keyOf(options);
    auto it = cache_.find(key);
    if (it == cache_.end())
      it = cache_.emplace(key, compiler_.compile(options)).first;
    return it->second;
  }

  [[nodiscard]] const sunway::ArchConfig& arch() const {
    return compiler_.arch();
  }

  double gflops(const core::CodegenOptions& options, const Shape& shape,
                std::int64_t batch = 1) {
    return estimate(options, shape, batch).gflops;
  }

  rt::RunOutcome estimate(const core::CodegenOptions& options,
                          const Shape& shape, std::int64_t batch = 1) {
    core::GemmProblem problem{shape.m, shape.n, shape.k, batch};
    return core::estimateGemm(get(options), arch(), problem);
  }

 private:
  static std::string keyOf(const core::CodegenOptions& o) {
    return std::string(o.useAsm ? "a" : "-") + (o.useRma ? "r" : "-") +
           (o.hideLatency ? "h" : "-") + (o.batched ? "b" : "-") +
           std::to_string(static_cast<int>(o.fusion)) + "/" +
           std::to_string(o.tileM) + "x" + std::to_string(o.tileN) + "x" +
           std::to_string(o.tileK);
  }

  core::SwGemmCompiler compiler_;
  std::map<std::string, core::CompiledKernel> cache_;
};

inline core::CodegenOptions variantOptions(bool useAsm, bool useRma,
                                           bool hide) {
  core::CodegenOptions options;
  options.useAsm = useAsm;
  options.useRma = useRma;
  options.hideLatency = hide;
  return options;
}

/// The paper's four breakdown levels (Fig.13) in order.
inline const std::vector<std::pair<const char*, core::CodegenOptions>>&
breakdownVariants() {
  static const std::vector<std::pair<const char*, core::CodegenOptions>>
      variants = {
          {"baseline(DMA)", variantOptions(false, false, false)},
          {"+asm", variantOptions(true, false, false)},
          {"+RMA", variantOptions(true, true, false)},
          {"+hiding", variantOptions(true, true, true)},
      };
  return variants;
}

inline void printRule(int width) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// Publishes the simulated-run numbers of an outcome as benchmark counters
/// so `--benchmark_format=json` carries them next to "sim_gflops": the
/// overlap and compute shares from the run's report, and the SPM
/// high-water mark in KB from the kernel's program.
inline void exportRunCounters(benchmark::State& state,
                              const rt::RunOutcome& outcome,
                              const codegen::KernelProgram& program,
                              const sunway::ArchConfig& arch) {
  state.counters["sim_gflops"] = outcome.gflops;
  state.counters["pct_peak"] = 100.0 * outcome.gflops /
                               (arch.peakFlops() / 1e9);
  state.counters["overlap_pct"] = outcome.report.overlapPct;
  state.counters["compute_pct"] = outcome.report.attribution.computePct;
  state.counters["spm_high_water_kb"] =
      static_cast<double>(program.spmBytesUsed()) / 1024.0;
  state.counters["ceiling_utilization"] =
      outcome.report.roofline.ceilingUtilization;
}

/// When $SWBENCH_REPORT_DIR is set, write the case's PerfReport JSON to
/// `<dir>/<sanitized case name>.json` so CI can archive per-case roofline
/// evidence and tools/perf_trajectory.py can append it to the trajectory.
/// `caseName` is passed explicitly: the installed google-benchmark State
/// exposes no name accessor, and the registration site knows it anyway.
inline void exportCaseReport(const std::string& caseName,
                             const rt::RunOutcome& outcome) {
  const char* dir = std::getenv("SWBENCH_REPORT_DIR");
  if (dir == nullptr || dir[0] == '\0') return;
  std::string file;
  file.reserve(caseName.size());
  for (const char c : caseName)
    file += (std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '-' ||
             c == '.')
                ? c
                : '_';
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream out(std::filesystem::path(dir) / (file + ".json"));
  if (out) out << outcome.report.toJson() << "\n";
}

}  // namespace sw::bench
