// Tests of the log-scale histogram: bucket geometry, the pinned
// percentile convention (continuous rank + geometric interpolation, see
// support/histogram.h), merge/clear semantics, and the registry's
// percentile-gauge publication.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "support/histogram.h"

namespace sw {
namespace {

using metrics::Histogram;
using metrics::HistogramRegistry;

TEST(HistogramBuckets, GeometryInvariants) {
  // Bucket 0 is the underflow bucket; the last bucket is the overflow.
  EXPECT_EQ(Histogram::bucketIndex(0.0), 0);
  EXPECT_EQ(Histogram::bucketIndex(-5.0), 0);
  EXPECT_EQ(Histogram::bucketIndex(std::nan("")), 0);
  EXPECT_EQ(Histogram::bucketIndex(Histogram::kMaxValue),
            Histogram::kBucketCount - 1);
  EXPECT_EQ(Histogram::bucketIndex(1e9), Histogram::kBucketCount - 1);

  // Every log bucket contains its lower bound and excludes its upper.
  for (int i = 1; i <= Histogram::kLogBuckets; ++i) {
    const double lower = Histogram::bucketLowerBound(i);
    const double upper = Histogram::bucketUpperBound(i);
    EXPECT_LT(lower, upper);
    EXPECT_EQ(Histogram::bucketIndex(lower), i) << "bucket " << i;
    // Bounds tile the range with no gaps.
    if (i < Histogram::kLogBuckets) {
      EXPECT_DOUBLE_EQ(upper, Histogram::bucketLowerBound(i + 1));
    }
  }
  // Each decade holds exactly kBucketsPerDecade buckets.
  EXPECT_DOUBLE_EQ(
      Histogram::bucketLowerBound(1 + Histogram::kBucketsPerDecade) /
          Histogram::bucketLowerBound(1),
      10.0);
  EXPECT_NE(Histogram::bucketLabel(3).find('['), std::string::npos);
}

TEST(HistogramPercentile, EmptyAndSingleValue) {
  Histogram h;
  EXPECT_EQ(h.percentile(50.0), 0.0);
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.mean(), 0.0);

  h.record(1.0);
  EXPECT_EQ(h.count(), 1);
  EXPECT_DOUBLE_EQ(h.mean(), 1.0);
  EXPECT_DOUBLE_EQ(h.maxRecorded(), 1.0);
  // Closed form: n = 1, rank r = p/100; the single value's bucket is
  // selected with frac = r, value = lower * (upper/lower)^frac, clamped
  // to the recorded maximum (1.0 sits on its bucket's lower edge, so the
  // raw interpolation would overshoot the only sample at every p > 0).
  const int bucket = Histogram::bucketIndex(1.0);
  const double lower = Histogram::bucketLowerBound(bucket);
  const double upper = Histogram::bucketUpperBound(bucket);
  for (const double p : {10.0, 50.0, 90.0}) {
    const double expected =
        std::min(lower * std::pow(upper / lower, p / 100.0), 1.0);
    EXPECT_NEAR(h.percentile(p), expected, 1e-12) << "p" << p;
    EXPECT_LE(h.percentile(p), h.maxRecorded()) << "p" << p;
  }
}

TEST(HistogramPercentile, ClosedFormAcrossTwoBuckets) {
  // One sample in the bucket of 0.001 and three in the bucket of 1.3
  // (strictly inside its bucket, so mid-bucket interpolation is
  // unclamped): cumulative counts are 1 and 4.
  Histogram h;
  h.record(0.001);
  h.record(1.3);
  h.record(1.3);
  h.record(1.3);

  const int low = Histogram::bucketIndex(0.001);
  const int high = Histogram::bucketIndex(1.3);
  // p25: rank = 1, consumed exactly by the first bucket (frac = 1) — the
  // percentile sits at that bucket's upper edge.
  EXPECT_NEAR(h.percentile(25.0), Histogram::bucketUpperBound(low), 1e-12);
  // p100: rank = 4 lands in the last bucket with frac = 1; the raw upper
  // edge overshoots the samples, so the clamp reports the true maximum.
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 1.3);
  // p62.5: rank = 2.5, second bucket holds ranks (1, 4], frac = 1.5/3;
  // the geometric interpolation sits below the recorded max (unclamped).
  const double lower = Histogram::bucketLowerBound(high);
  const double upper = Histogram::bucketUpperBound(high);
  const double raw = lower * std::pow(upper / lower, 0.5);
  ASSERT_LT(raw, 1.3);
  EXPECT_NEAR(h.percentile(62.5), raw, 1e-12);
}

TEST(HistogramPercentile, UnderflowInterpolatesLinearlyOverflowClamps) {
  Histogram underflow;
  underflow.record(0.8 * Histogram::kMinValue);
  // Single sample in [0, kMinValue): p50 -> frac 0.5, linear from 0
  // (below the recorded max, so the clamp does not bind).
  EXPECT_NEAR(underflow.percentile(50.0), 0.5 * Histogram::kMinValue, 1e-18);
  // p100 would interpolate to the bucket edge; the clamp pins the sample.
  EXPECT_DOUBLE_EQ(underflow.percentile(100.0), 0.8 * Histogram::kMinValue);

  Histogram zeros;
  zeros.record(0.0);
  zeros.record(0.0);
  // All-zero samples must never report a positive latency.
  EXPECT_DOUBLE_EQ(zeros.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(zeros.percentile(100.0), 0.0);

  Histogram overflow;
  overflow.record(1e9);
  // The overflow bucket has no upper edge; before the clamp fix it
  // reported kMaxValue, six orders of magnitude below the true sample.
  EXPECT_DOUBLE_EQ(overflow.percentile(50.0), 1e9);
  EXPECT_DOUBLE_EQ(overflow.percentile(100.0), 1e9);
  EXPECT_DOUBLE_EQ(overflow.maxRecorded(), 1e9);  // max is exact
}

TEST(HistogramPercentile, PercentilesAreMonotonic) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.record(0.01 * i);  // 0.01 .. 10
  double last = 0.0;
  for (double p = 0.0; p <= 100.0; p += 2.5) {
    const double value = h.percentile(p);
    EXPECT_GE(value, last) << "p" << p;
    last = value;
  }
  // The interpolated median of a uniform sample lands near the true one
  // (within one geometric bucket width, ~33% at 8 buckets/decade).
  EXPECT_NEAR(h.percentile(50.0), 5.0, 5.0 * 0.35);
}

TEST(Histogram, MergeAndClear) {
  Histogram a, b;
  a.record(1.0);
  b.record(100.0);
  b.record(3.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 3);
  EXPECT_DOUBLE_EQ(a.sum(), 104.0);
  EXPECT_DOUBLE_EQ(a.maxRecorded(), 100.0);
  EXPECT_EQ(a.bucketCount(Histogram::bucketIndex(100.0)), 1);
  a.clear();
  EXPECT_EQ(a.count(), 0);
  EXPECT_EQ(a.percentile(99.0), 0.0);
}

TEST(HistogramRegistry, RecordSnapshot) {
  HistogramRegistry& registry = HistogramRegistry::global();
  registry.clear();
  EXPECT_FALSE(registry.has("t.latency"));
  registry.record("t.latency", 2.0);
  registry.record("t.latency", 4.0);
  EXPECT_TRUE(registry.has("t.latency"));
  const auto snap = registry.snapshot();
  ASSERT_EQ(snap.count("t.latency"), 1u);
  EXPECT_EQ(snap.at("t.latency").count(), 2);
  EXPECT_DOUBLE_EQ(snap.at("t.latency").mean(), 3.0);
  EXPECT_DOUBLE_EQ(snap.at("t.latency").maxRecorded(), 4.0);
  registry.clear();
}

}  // namespace
}  // namespace sw
