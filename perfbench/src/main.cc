// perfbench: the swcodegen benchmark.  One command runs one of three
// seeded, closed-loop workloads and prints every metric with its unit and
// clock, then one JSON result line.
//
//   perfbench --workload paper_sweep|functional_mesh|serving_mix
//             --seed N --seconds S --trace 0|1 --root DIR
//             [--commit SHA] [--spans PATH]
//
// A run sets the workload up once, then runs its stream in windows.  At
// kCheckpoints points spread evenly between windows it times one more
// set-up and one search of the fixed tuning list.  On a shared host a
// core's speed drifts over seconds, as other tenants contend for cache and
// memory bandwidth, so set-up, compile and tuning samples taken back to
// back at the start or end of a run all share one drift; spread over the
// run, their median does not.
//
// --trace 0 reports the end-to-end metrics.  --trace 1 runs the stream
// untraced and then traced for half the windows each, reports both sets
// of end-to-end values (their difference is the tracing overhead) and the
// per-layer metrics.  Layers the workload does not cross are measured by a
// short traced companion window of the workload that does, so every traced
// run reports every layer.
//
// Exit codes: 0 ok, 1 a wrong answer or failed request, 2 usage, 3 refused
// (unoptimised build, or the library's own tracing/logging switched on).
#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "bench.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// Timed set-ups and searches between windows: tune_s is the median of
/// kCheckpoints searches, setup_s of kCheckpoints + 1 set-ups (the first
/// at process start).
constexpr int kCheckpoints = 6;
const char* const kWorkloads[] = {"paper_sweep", "functional_mesh",
                                  "serving_mix"};

std::unique_ptr<Workload> makeWorkload(const RunOptions& options) {
  if (options.workload == "paper_sweep") return makePaperSweep(options);
  if (options.workload == "functional_mesh") return makeFunctionalMesh(options);
  if (options.workload == "serving_mix") return makeServingMix(options);
  return nullptr;
}

void timedSetup(Workload& workload, WorkloadResult& result, Samples& setup) {
  const double start = nowSeconds();
  workload.setup(result);
  setup.add(nowSeconds() - start);
}

/// Run windows [first, last) of a `total`-window stream of `seconds`,
/// with a checkpoint after each window that closes one of kCheckpoints
/// equal shares of the stream.
void runWindows(Workload& workload, int first, int last, int total,
                double seconds, Tracer* tracer, WorkloadResult& result,
                Samples& setup) {
  for (int w = first; w < last; ++w) {
    workload.window(seconds / total, 0, tracer, result);
    if ((w + 1) * kCheckpoints / total == w * kCheckpoints / total) continue;
    timedSetup(workload, result, setup);
    double searchSeconds = 0.0, rankSeconds = 0.0;
    std::int64_t feasible = 0;
    {
      const Tracer::Scope span(tracer, "tune");
      searchSeconds = searchTuningList(
          sw::sunway::ArchConfig{}, tracer, result,
          tracer != nullptr ? &rankSeconds : nullptr, &feasible);
    }
    result.tuneSeconds.add(searchSeconds);
    if (tracer == nullptr) continue;
    result.tuneRankSeconds.add(rankSeconds);
    result.tuneValidateSeconds.add(std::max(0.0, searchSeconds - rankSeconds));
    result.tuneFeasible = feasible;
  }
}

void addTuneLayers(const WorkloadResult& r, MetricMap& layers) {
  layers["tune.rank_s"] = {r.tuneRankSeconds.median(), "s", Clock::kHost,
                           "searchSchedules validateTopN=0, median search"};
  layers["tune.validate_s"] = {r.tuneValidateSeconds.median(), "s",
                               Clock::kHost,
                               "default search minus rank-only, median"};
  layers["tune.feasible"] = {static_cast<double>(r.tuneFeasible), "count",
                             Clock::kNone, "feasible candidates, 3 searches"};
}

MetricMap endToEnd(const WorkloadResult& r, const Samples& setup) {
  MetricMap m;
  const auto count = [](const Samples& s) {
    return "n=" + std::to_string(s.count());
  };
  m["latency_ms_p50"] = {r.latencyMs.median(), "ms", Clock::kHost,
                         count(r.latencyMs)};
  m["latency_ms_p99"] = {r.latencyMs.percentile(99.0), "ms", Clock::kHost,
                         count(r.latencyMs) + " beyond=" +
                             std::to_string(r.latencyMs.beyond(99.0))};
  m["throughput_rps"] = {
      r.streamSeconds > 0.0
          ? static_cast<double>(r.latencyMs.count()) / r.streamSeconds
          : 0.0,
      "1/s", Clock::kHost, "requests completed / stream seconds"};
  m["compile_ms_p50"] = {r.compileMs.median(), "ms", Clock::kHost,
                         count(r.compileMs) + " cold compile calls"};
  m["tune_s"] = {r.tuneSeconds.median(), "s", Clock::kHost,
                 count(r.tuneSeconds) + " searches of the tuning list"};
  double logSum = 0.0, minimum = 0.0;
  for (const double g : r.simGflops) {
    logSum += std::log(g);
    minimum = minimum == 0.0 ? g : std::min(minimum, g);
  }
  const std::string set = "n=" + std::to_string(r.simGflops.size()) + " (kernel, shape)";
  m["sim_gflops_geomean"] = {
      r.simGflops.empty()
          ? 0.0
          : std::exp(logSum / static_cast<double>(r.simGflops.size())),
      "GFLOPS", Clock::kSim, set};
  m["sim_gflops_min"] = {minimum, "GFLOPS", Clock::kSim, set};
  m["setup_s"] = {setup.median(), "s", Clock::kHost,
                  "median of " + std::to_string(setup.count()) + " set-ups"};
  m["peak_rss_mb"] = {readUsage().peakRssMb, "MB", Clock::kHost,
                      "getrusage ru_maxrss"};
  return m;
}

void printMetrics(const char* title, const MetricMap& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, m] : metrics)
    std::printf("  %-30s %16.6f %-10s %-5s %s\n", name.c_str(), m.value,
                m.unit.c_str(), toString(m.clock), m.note.c_str());
}

void printNotes(const WorkloadResult& r) {
  for (const std::string& note : r.notes) std::printf("note: %s\n", note.c_str());
}

void printSpans(const std::string& workload, const Tracer& tracer) {
  std::printf("spans (%s): name, count, total ms, self ms [host]\n",
              workload.c_str());
  for (const auto& [name, s] : tracer.summarize())
    std::printf("  %-30s %8lld %12.3f %12.3f\n", name.c_str(),
                static_cast<long long>(s.count), s.totalSeconds * 1e3,
                s.selfSeconds * 1e3);
}

std::string jsonResult(const WorkloadResult& r, const MetricMap& metrics) {
  std::string out = "{\"correct\": ";
  out += r.failed() == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  return out + "}}";
}

void absorb(WorkloadResult& into, const WorkloadResult& from) {
  into.attempted += from.attempted;
  into.threw += from.threw;
  into.wrong += from.wrong;
  into.shed += from.shed;
  if (into.firstError.empty()) into.firstError = from.firstError;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_sweep|functional_mesh|serving_mix --seed N --seconds S "
               "--trace 0|1 --root DIR [--commit SHA] [--spans PATH]\n",
               message);
  return 2;
}

int run(int argc, char** argv) {
  RunOptions options;
  std::string commit = "unknown", spansPath;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") options.workload = value;
      else if (flag == "--seed") options.seed = std::stoull(value);
      else if (flag == "--seconds") options.seconds = std::stod(value);
      else if (flag == "--trace") options.trace = std::stoi(value) != 0;
      else if (flag == "--root") options.root = value;
      else if (flag == "--commit") commit = value;
      else if (flag == "--spans") spansPath = value;
      else return usage(("unknown option " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (options.root.empty()) return usage("--root is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  // Refuse runs whose numbers would not mean what they say.
#ifdef __OPTIMIZE__
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  if (!kOptimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure: built without optimisation "
                 "(CMAKE_BUILD_TYPE '%s'); configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }
  for (const char* var : {"SWCODEGEN_TRACE", "SWCODEGEN_LOG"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr,
                   "perfbench: refusing to measure: %s is set, which switches "
                   "on the library's own tracing or logging; unset it\n",
                   var);
      return 3;
    }
  }

  // functional_mesh runs on one malloc arena, set before any thread starts.
  // With glibc's default of up to 8 x nproc arenas, the mesh's 64 threads
  // leave freed SPM blocks in a different set of arenas on every run, and
  // peak RSS varied by a quarter between identical runs; with one arena it
  // repeats within 0.5 %, p50 is unchanged and the 6-group runs that set
  // p99 take about a quarter longer.  The other workloads keep the
  // default: serving_mix's compile workers contend on a single arena and
  // lose half their throughput.
  if (options.workload == "functional_mesh") mallopt(M_ARENA_MAX, 1);
  options.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  std::unique_ptr<Workload> workload = makeWorkload(options);
  if (workload == nullptr) return usage("unknown workload");

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("provenance: commit=%s compiler=\"%s\" build_type=%s "
              "optimized=yes nproc=%d clocks: host=this machine, "
              "sim=modelled SW26010Pro\n",
              commit.c_str(), __VERSION__, PERFBENCH_BUILD_TYPE, options.nproc);
  std::fflush(stdout);

  WorkloadResult base;
  Samples setup;
  timedSetup(*workload, base, setup);
  // Compiles right after process start ran up to 40 % slower in some runs
  // than in others; they count in setup_s, and compile_ms samples warm
  // compiles only.
  base.compileMs = Samples{};
  const int windows = workload->windows(options.seconds);

  MetricMap reported;
  WorkloadResult total = base;
  std::string spansJson;
  if (!options.trace) {
    runWindows(*workload, 0, windows, windows, options.seconds, nullptr,
               total, setup);
    reported = endToEnd(total, setup);
    printMetrics("end-to-end:", reported);
    printNotes(total);
  } else {
    const int half = std::max(1, windows / 2);
    const int all = std::max(2, windows);
    WorkloadResult untraced = base;
    runWindows(*workload, 0, half, all, options.seconds, nullptr, untraced,
               setup);
    const MetricMap plain = endToEnd(untraced, setup);
    Tracer tracer;
    WorkloadResult traced = base;
    traced.threw = traced.wrong = traced.shed = 0;  // set-up counted once
    runWindows(*workload, half, all, all, options.seconds, &tracer, traced,
               setup);
    workload->finishTrace(tracer, traced);
    addTuneLayers(traced, traced.layers);
    const MetricMap withSpans = endToEnd(traced, setup);
    printMetrics("end-to-end, untraced half:", plain);
    printMetrics("end-to-end, traced half:", withSpans);
    printNotes(untraced);
    reported = traced.layers;
    const double p50 = plain.at("latency_ms_p50").value;
    reported["trace.overhead_pct"] = {
        p50 > 0.0 ? 100.0 * (withSpans.at("latency_ms_p50").value / p50 - 1.0)
                  : 0.0,
        "%", Clock::kHost, "traced vs untraced latency_ms_p50"};
    total = untraced;
    absorb(total, traced);
    printSpans(options.workload, tracer);
    spansJson = tracer.toJson(options.workload);
    for (const char* name : kWorkloads) {
      if (name == options.workload) continue;
      RunOptions companionOptions = options;
      companionOptions.workload = name;
      std::unique_ptr<Workload> companion = makeWorkload(companionOptions);
      Tracer companionTracer;
      WorkloadResult companionResult;
      companion->setup(companionResult);
      companion->window(options.seconds, companion->companionRequests(),
                        &companionTracer, companionResult);
      companion->finishTrace(companionTracer, companionResult);
      for (auto& [metric, value] : companionResult.layers) {
        if (reported.count(metric) != 0) continue;
        value.note += " [companion " + std::string(name) + "]";
        reported.emplace(metric, value);
      }
      absorb(total, companionResult);
      printSpans(name, companionTracer);
      spansJson += ",\n" + companionTracer.toJson(name);
    }
    printMetrics("per-layer:", reported);
  }

  std::printf("error_frac %.6f (threw=%lld wrong=%lld shed=%lld of %lld "
              "attempted)\n",
              total.attempted > 0 ? static_cast<double>(total.failed()) /
                                        static_cast<double>(total.attempted)
                                  : 0.0,
              static_cast<long long>(total.threw),
              static_cast<long long>(total.wrong),
              static_cast<long long>(total.shed),
              static_cast<long long>(total.attempted));
  if (!total.firstError.empty())
    std::printf("first failure: %s\n", total.firstError.c_str());
  if (!spansPath.empty() && !spansJson.empty()) {
    std::ofstream out(spansPath);
    out << "[" << spansJson << "]\n";
    if (out) std::printf("spans written to %s\n", spansPath.c_str());
  }
  std::printf("%s\n", jsonResult(total, reported).c_str());
  return total.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
