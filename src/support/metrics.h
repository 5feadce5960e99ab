// Metrics registry of failure-path events, and the --profile tables.
//
// MetricsRegistry is a process-wide, thread-safe name → counter map of
// events that have no other home: sheds by cause, displacements,
// deadline misses, breaker trips and states, degrade steps, injected
// faults, DMA retries and mesh deadlocks.  Nothing on the success path of
// a run, estimate, compile or request writes to it: a run's numbers live
// in its perf::PerfReport, a kernel's in its program, the kernel
// service's and the admission frontend's in their stats(), and latency
// distributions in the HistogramRegistry.  The CLI's --profile prints it.
#pragma once

#include <map>
#include <mutex>
#include <string>

namespace sw::metrics {

class Histogram;

/// 100 * numerator / denominator, hardened for gauge math: returns 0 when
/// the denominator is zero/negative/non-finite or the numerator is
/// non-finite (an idle engine must read as 0%, never NaN).
[[nodiscard]] double safePct(double numerator, double denominator);

/// numerator / denominator with the same hardening, 0 on bad input.
[[nodiscard]] double safeDiv(double numerator, double denominator);

class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  void set(const std::string& name, double value);
  void add(const std::string& name, double delta);
  /// 0.0 when the gauge was never published.
  [[nodiscard]] double get(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::map<std::string, double> snapshot() const;
  void clear();

 private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, double> gauges_;
};

/// Render a gauge snapshot as the --profile table: gauges grouped by their
/// first dotted component, groups and rows sorted, names aligned, and the
/// value column annotated with a unit inferred from the name suffix
/// (_pct → %, _bytes → KB, _ms → ms, _seconds → s).  Deterministic for a
/// given map; pinned by a snapshot test.
[[nodiscard]] std::string formatMetricsTable(
    const std::map<std::string, double>& gauges);

/// Render a histogram snapshot as a count/p50/p90/p99/max table (one row
/// per histogram, sorted by name).  `unit` annotates the columns.
[[nodiscard]] std::string formatHistogramTable(
    const std::map<std::string, Histogram>& histograms,
    const std::string& unit);

}  // namespace sw::metrics
