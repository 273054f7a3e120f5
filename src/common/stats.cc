#include "common/stats.h"

#include <algorithm>
#include <cmath>

namespace oscar {

double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double clamped = std::max(0.0, std::min(100.0, pct));
  const double pos = clamped / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

namespace {

// Bucket count for the fixed [kMinValue, kMaxValue) layout, plus an
// underflow bucket at index 0 and an overflow bucket at the end.
size_t LogBucketCount() {
  const double octaves =
      std::log2(LogHistogram::kMaxValue / LogHistogram::kMinValue);
  return static_cast<size_t>(
             std::ceil(octaves * LogHistogram::kBucketsPerOctave)) +
         2;
}

}  // namespace

LogHistogram::LogHistogram() : buckets_(LogBucketCount(), 0) {}

size_t LogHistogram::BucketOf(double value) const {
  if (!(value >= kMinValue)) return 0;  // Underflow; NaN lands here too.
  if (value >= kMaxValue) return buckets_.size() - 1;
  const double octave = std::log2(value / kMinValue);
  const size_t index =
      1 + static_cast<size_t>(octave * kBucketsPerOctave);
  return std::min(index, buckets_.size() - 2);
}

double LogHistogram::LowerBound(size_t bucket) const {
  if (bucket == 0) return 0.0;
  return kMinValue * std::exp2(static_cast<double>(bucket - 1) /
                               kBucketsPerOctave);
}

double LogHistogram::UpperBound(size_t bucket) const {
  if (bucket == 0) return kMinValue;
  if (bucket >= buckets_.size() - 1) return max_;
  return kMinValue *
         std::exp2(static_cast<double>(bucket) / kBucketsPerOctave);
}

void LogHistogram::Record(double value) {
  ++buckets_[BucketOf(value)];
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
}

double LogHistogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double LogHistogram::Max() const { return count_ == 0 ? 0.0 : max_; }

double LogHistogram::Percentile(double pct) const {
  if (count_ == 0) return 0.0;
  const double clamped = std::max(0.0, std::min(100.0, pct));
  // Same rank convention as the exact Percentile(): position in
  // [0, count - 1], interpolated. The extreme ranks are exact — the
  // recorded min/max, not a bucket midpoint (this also keeps the
  // under/overflow buckets' synthetic bounds out of the digest).
  const double pos =
      clamped / 100.0 * static_cast<double>(count_ - 1);
  if (pos <= 0.0) return min_;
  if (pos >= static_cast<double>(count_ - 1)) return max_;
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    const uint64_t in_bucket = buckets_[i];
    if (pos < static_cast<double>(seen + in_bucket)) {
      // Fractional position of the target rank inside this bucket.
      const double frac =
          in_bucket == 1
              ? 0.5
              : (pos - static_cast<double>(seen)) /
                    static_cast<double>(in_bucket - 1);
      const double lo = LowerBound(i);
      const double hi = UpperBound(i);
      const double value = lo + (hi - lo) * frac;
      return std::max(min_, std::min(max_, value));
    }
    seen += in_bucket;
  }
  return max_;
}

double Gini(const std::vector<double>& values) {
  if (values.size() < 2) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  double cumulative = 0.0, weighted = 0.0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    cumulative += sorted[i];
    weighted += sorted[i] * static_cast<double>(i + 1);
  }
  if (cumulative <= 0.0) return 0.0;
  const double n = static_cast<double>(sorted.size());
  return (2.0 * weighted) / (n * cumulative) - (n + 1.0) / n;
}

double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.size() < 2) return 0.0;
  const double n = static_cast<double>(xs.size());
  double sx = 0, sy = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / n, my = sy / n;
  double cov = 0, vx = 0, vy = 0;
  for (size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx, dy = ys[i] - my;
    cov += dx * dy;
    vx += dx * dx;
    vy += dy * dy;
  }
  if (vx <= 0.0 || vy <= 0.0) return 0.0;
  return cov / std::sqrt(vx * vy);
}

}  // namespace oscar
