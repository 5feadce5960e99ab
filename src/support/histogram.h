// Fixed-bucket log-scale latency histogram with percentile extraction.
//
// A flat gauge loses the latency *distribution* — a p99 regression hides
// completely behind an unchanged mean.  Histogram keeps a fixed array of
// geometric buckets (8 per decade across 9 decades, values in any unit the
// caller picks — the kernel service records milliseconds) so recording is
// O(1), lock-free once the registry hands the caller a reference, and
// merging/percentiles are exact closed-form functions of the bucket counts.
//
// Percentile convention (pinned by tests/histogram_test.cc): for a
// recorded count n, percentile p maps to the continuous rank
// r = (p/100)·n; the first bucket whose cumulative count reaches r is
// selected and the result interpolates geometrically inside it:
//   value = lower · (upper/lower)^frac,  frac = (r − cumBefore)/bucketN.
// The underflow bucket [0, kMinValue) interpolates linearly from 0.
// Every estimate is clamped to the tracked maximum, so p100 reports the
// true recorded extreme even from the overflow bucket [kMaxValue, inf),
// which has no upper edge to interpolate against.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace sw::metrics {

class Histogram {
 public:
  /// Geometric bucket layout: bucket 0 is [0, kMinValue); buckets
  /// 1..kLogBuckets cover [kMinValue, kMaxValue) with kBucketsPerDecade
  /// equal ratio steps per decade; the last bucket is [kMaxValue, inf).
  static constexpr int kBucketsPerDecade = 8;
  static constexpr int kDecades = 9;
  static constexpr double kMinValue = 1e-6;
  static constexpr double kMaxValue = 1e3;  // kMinValue * 10^kDecades
  static constexpr int kLogBuckets = kBucketsPerDecade * kDecades;
  static constexpr int kBucketCount = kLogBuckets + 2;

  /// Index of the bucket holding `value`; negatives and NaN count as 0.
  [[nodiscard]] static int bucketIndex(double value);
  /// Lower/upper edge of bucket `index` (upper of the overflow bucket is
  /// +inf).
  [[nodiscard]] static double bucketLowerBound(int index);
  [[nodiscard]] static double bucketUpperBound(int index);
  /// Human-readable half-open interval, e.g. "[1.78e+00, 3.16e+00)".
  [[nodiscard]] static std::string bucketLabel(int index);

  void record(double value);
  void merge(const Histogram& other);
  void clear();

  [[nodiscard]] std::int64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const;
  [[nodiscard]] double maxRecorded() const { return max_; }
  [[nodiscard]] std::int64_t bucketCount(int index) const {
    return counts_[static_cast<std::size_t>(index)];
  }

  /// p in [0, 100]; 0.0 on an empty histogram.  See the header comment for
  /// the exact interpolation convention.
  [[nodiscard]] double percentile(double p) const;

 private:
  std::array<std::int64_t, kBucketCount> counts_{};
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double max_ = 0.0;
};

/// Process-wide, thread-safe name → Histogram map: the one home of the
/// kernel service's per-request compile/run latency, the tuner's resolve
/// latency and the admission queue wait.  The CLI's --profile table and
/// tests read the snapshot back out; nothing copies its percentiles
/// elsewhere.
class HistogramRegistry {
 public:
  static HistogramRegistry& global();

  void record(const std::string& name, double value);
  [[nodiscard]] std::map<std::string, Histogram> snapshot() const;
  [[nodiscard]] bool has(const std::string& name) const;
  void clear();

 private:
  HistogramRegistry() = default;

  mutable std::mutex mutex_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace sw::metrics
