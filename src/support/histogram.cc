#include "support/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

namespace sw::metrics {

int Histogram::bucketIndex(double value) {
  if (!(value >= kMinValue)) return 0;  // underflow; NaN lands here too
  if (value >= kMaxValue) return kBucketCount - 1;
  // log10(value / kMinValue) in [0, kDecades); each decade holds
  // kBucketsPerDecade buckets.
  const double position =
      std::log10(value / kMinValue) * static_cast<double>(kBucketsPerDecade);
  int index = 1 + static_cast<int>(position);
  // Guard the edges against floating-point rounding of the log.
  index = std::clamp(index, 1, kLogBuckets);
  if (value < bucketLowerBound(index)) --index;
  if (value >= bucketUpperBound(index)) ++index;
  return std::clamp(index, 1, kLogBuckets);
}

double Histogram::bucketLowerBound(int index) {
  if (index <= 0) return 0.0;
  if (index >= kBucketCount - 1) return kMaxValue;
  return kMinValue *
         std::pow(10.0, static_cast<double>(index - 1) /
                            static_cast<double>(kBucketsPerDecade));
}

double Histogram::bucketUpperBound(int index) {
  if (index <= 0) return kMinValue;
  if (index >= kBucketCount - 1)
    return std::numeric_limits<double>::infinity();
  return kMinValue *
         std::pow(10.0, static_cast<double>(index) /
                            static_cast<double>(kBucketsPerDecade));
}

std::string Histogram::bucketLabel(int index) {
  char buf[64];
  if (index >= kBucketCount - 1) {
    std::snprintf(buf, sizeof(buf), "[%.3g, inf)", bucketLowerBound(index));
  } else {
    std::snprintf(buf, sizeof(buf), "[%.3g, %.3g)", bucketLowerBound(index),
                  bucketUpperBound(index));
  }
  return buf;
}

void Histogram::record(double value) {
  if (std::isnan(value) || value < 0.0) value = 0.0;
  ++counts_[static_cast<std::size_t>(bucketIndex(value))];
  ++count_;
  sum_ += value;
  max_ = std::max(max_, value);
}

void Histogram::merge(const Histogram& other) {
  for (int i = 0; i < kBucketCount; ++i)
    counts_[static_cast<std::size_t>(i)] +=
        other.counts_[static_cast<std::size_t>(i)];
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

void Histogram::clear() {
  counts_.fill(0);
  count_ = 0;
  sum_ = 0.0;
  max_ = 0.0;
}

double Histogram::mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double Histogram::percentile(double p) const {
  if (count_ == 0) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(count_);
  std::int64_t cumulative = 0;
  for (int i = 0; i < kBucketCount; ++i) {
    const std::int64_t n = counts_[static_cast<std::size_t>(i)];
    if (n == 0) continue;
    if (static_cast<double>(cumulative + n) >= rank) {
      const double frac =
          std::clamp((rank - static_cast<double>(cumulative)) /
                         static_cast<double>(n),
                     0.0, 1.0);
      // Every interpolated estimate is clamped to the tracked maximum:
      // bucket edges (and the overflow bucket especially) otherwise cap
      // or overshoot the true recorded extreme, so p100 must equal it.
      if (i == 0) return std::min(kMinValue * frac, max_);  // linear from 0
      if (i == kBucketCount - 1) return std::max(kMaxValue, max_);
      const double lower = bucketLowerBound(i);
      const double upper = bucketUpperBound(i);
      return std::min(lower * std::pow(upper / lower, frac), max_);
    }
    cumulative += n;
  }
  // All mass consumed without reaching the rank (p == 100 with rounding):
  // report the highest non-empty bucket's upper edge, clamped likewise.
  for (int i = kBucketCount - 1; i >= 0; --i) {
    if (counts_[static_cast<std::size_t>(i)] == 0) continue;
    return i == kBucketCount - 1 ? std::max(kMaxValue, max_)
                                 : std::min(bucketUpperBound(i), max_);
  }
  return 0.0;
}

HistogramRegistry& HistogramRegistry::global() {
  static HistogramRegistry registry;
  return registry;
}

void HistogramRegistry::record(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  histograms_[name].record(value);
}

std::map<std::string, Histogram> HistogramRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_;
}

bool HistogramRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_.count(name) != 0;
}

void HistogramRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  histograms_.clear();
}

}  // namespace sw::metrics
