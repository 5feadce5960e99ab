// Shared pieces of the swcodegen benchmark: raw-sample statistics, the
// metric record every workload reports, an in-memory span recorder, and
// the workload interface.
//
// Two clocks appear in every result.  `host` is the machine running the
// benchmark (steady_clock wall time, getrusage CPU time); `sim` is the
// modelled SW26010Pro logical clock the estimator and the mesh simulator
// advance.  Every metric carries its clock so no number is ambiguous.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sunway/arch.h"

namespace perfbench {

/// Monotonic host seconds.
double nowSeconds();

/// Raw per-request samples.  Percentiles are exact order statistics
/// (nearest rank), never histogram interpolations.
class Samples {
 public:
  void add(double value) { values_.push_back(value); }
  void append(const Samples& other);
  [[nodiscard]] std::size_t count() const { return values_.size(); }
  [[nodiscard]] bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile: the ceil(p/100 * n)-th smallest value.
  [[nodiscard]] double percentile(double p) const;
  [[nodiscard]] double median() const { return percentile(50.0); }
  [[nodiscard]] double sum() const;
  /// Samples strictly above the percentile's rank (the tail it rests on).
  [[nodiscard]] std::size_t beyond(double p) const;

 private:
  std::vector<double> values_;
};

enum class Clock { kHost, kSim, kNone };
const char* toString(Clock clock);

struct Metric {
  double value = 0.0;
  std::string unit;
  Clock clock = Clock::kNone;
  /// Sample count, source or formula; printed, never parsed.
  std::string note;
};
using MetricMap = std::map<std::string, Metric>;

/// Host process counters from getrusage(RUSAGE_SELF): CPU time of every
/// thread, voluntary context switches and peak resident set.
struct Usage {
  double cpuSeconds = 0.0;
  std::int64_t voluntarySwitches = 0;
  double peakRssMb = 0.0;
};
Usage readUsage();

/// Moves the calling thread from CPU to CPU while it does single-threaded
/// work.  On a shared host one core can run a third slower than another
/// for minutes, while a neighbour loads its sibling; a thread the
/// scheduler leaves on that core makes the whole run slow.  Visiting every
/// allowed CPU in turn averages single-threaded timings over all of them.
/// The destructor restores the thread's CPU set, so threads the caller
/// starts afterwards may run anywhere; nothing multi-threaded may run
/// while a rotation is alive.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  /// Call before each short piece of work: every kPerCpu calls the
  /// thread moves on to the next CPU.
  void next();

 private:
  static constexpr int kPerCpu = 4;
  std::vector<int> cpus_;
  std::size_t calls_ = 0;
};

/// In-memory span recorder.  A span is a timed call into one layer's
/// public function made by the benchmark's own code; it records name,
/// start, end, parent span and request id.  Spans stay in memory until
/// the run ends and are then written out as JSON.  Thread-safe; the parent
/// of a span is the innermost open span on the same thread.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::int64_t parent = -1;
    std::int64_t request = -1;
  };

  /// RAII span; a null tracer makes it a no-op, so untraced runs share the
  /// traced code path at the cost of one branch.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::int64_t request = -1);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t id_ = -1;
  };

  /// Record an already-finished span (times measured elsewhere, e.g. a
  /// service response's own queue-wait split).  Returns its id.
  std::int64_t record(const std::string& name, double start, double end,
                      std::int64_t parent, std::int64_t request);

  /// Durations in seconds of every finished span called `name`.
  [[nodiscard]] Samples durations(const std::string& name) const;

  /// Per span name: count, total and self seconds (duration minus the time
  /// its children cover).
  struct Summary {
    std::int64_t count = 0;
    double totalSeconds = 0.0;
    double selfSeconds = 0.0;
  };
  [[nodiscard]] std::map<std::string, Summary> summarize() const;

  /// Spans as one JSON object: {"workload": ..., "spans": [...]}.
  [[nodiscard]] std::string toJson(const std::string& workload) const;

 private:
  std::int64_t open(const char* name, std::int64_t request);
  void close(std::int64_t id);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Command-line settings shared by every workload.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root;  // checkout root: examples/ and perfbench/sources/
  int nproc = 1;
};

/// What one workload run produced.  End-to-end metrics are filled for
/// every run; per-layer metrics only when a tracer was attached.
struct WorkloadResult {
  std::int64_t attempted = 0;
  std::int64_t threw = 0;
  std::int64_t wrong = 0;
  std::int64_t shed = 0;
  std::string firstError;  // first failure, for the diagnostic line
  /// Lines printed before the result for a reader to check by eye.
  std::vector<std::string> notes;

  Samples latencyMs;      // one sample per request
  /// Host seconds the request stream ran, excluding work that is not a
  /// request (set-ups and searches at checkpoints, paper_sweep's compiles,
  /// functional_mesh's oracle).
  double streamSeconds = 0.0;
  Samples compileMs;      // cold compile calls
  Samples tuneSeconds;    // one sample per search of the tuning list
  /// Traced searches only: the estimator-only search's time, the rest of
  /// the default search's (its validations), and the feasible candidates.
  Samples tuneRankSeconds, tuneValidateSeconds;
  std::int64_t tuneFeasible = 0;
  std::vector<double> simGflops;  // the workload's fixed (kernel, shape) set

  MetricMap layers;  // per-layer metrics (traced runs)

  [[nodiscard]] std::int64_t failed() const { return threw + wrong + shed; }
  void fail(std::int64_t* counter, const std::string& what);
};

/// One workload: set up (repeatable, timed by the caller), then a
/// closed-loop request stream cut into windows.  The caller puts timed
/// set-ups and tuning searches between windows, so those samples are
/// spread over the run instead of bunched at its start or end.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Build everything the stream needs: compiles, inputs, oracle digests,
  /// warm-up.  Called several times; each call starts from nothing and
  /// adds one compile_ms sample per compile it makes.
  virtual void setup(WorkloadResult& result) = 0;
  /// How many windows a stream budget of `seconds` is cut into.
  virtual int windows(double seconds) const = 0;
  /// Issue the next window of requests: about `seconds` of host time, or
  /// until `maxRequests` were issued (0 = no cap).  The stream's seeded
  /// generators carry over from one window to the next.  A non-null
  /// tracer records spans and counts for finishTrace.
  virtual void window(double seconds, std::int64_t maxRequests,
                      Tracer* tracer, WorkloadResult& result) = 0;
  /// Turn what the traced windows recorded into result.layers.
  virtual void finishTrace(Tracer& tracer, WorkloadResult& result) = 0;
  /// The companion budget a traced run of another workload uses to fill
  /// the per-layer metrics of layers only this workload crosses.
  virtual std::int64_t companionRequests() const = 0;
};

std::unique_ptr<Workload> makePaperSweep(const RunOptions& options);
std::unique_ptr<Workload> makeFunctionalMesh(const RunOptions& options);
std::unique_ptr<Workload> makeServingMix(const RunOptions& options);

/// Search the fixed tuning list (1024^3, 100^3, 257x63x65) from scratch
/// with the default tuner; returns host seconds, counts failures.
/// `rankOnlySeconds`, when non-null, additionally runs the estimator-only
/// search (validateTopN = 0) and reports its time; `feasible` sums the
/// feasible candidate counts.
double searchTuningList(const sw::sunway::ArchConfig& arch, Tracer* tracer,
                        WorkloadResult& result, double* rankOnlySeconds,
                        std::int64_t* feasible);

/// Read a whole file; throws std::runtime_error when it cannot.
std::string readFile(const std::string& path);

}  // namespace perfbench
