// Small statistics helpers shared by the metrics and experiment layers.

#ifndef OSCAR_COMMON_STATS_H_
#define OSCAR_COMMON_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace oscar {

/// Percentile in [0, 100] by linear interpolation; 0 for empty input.
double Percentile(std::vector<double> values, double pct);

/// Fixed-bucket log-scale histogram for positive, latency-like samples.
/// Bucket boundaries grow geometrically (kBucketsPerOctave subdivisions
/// per power of two, ~2.2% relative width), so memory is constant no
/// matter how many samples are recorded and a percentile query costs one
/// pass over the bucket array. Counts are integers, so the buckets,
/// min, max and every percentile are independent of the order values
/// were recorded in; only the float sum behind Mean() is not.
///
/// Values below kMinValue land in an underflow bucket reported as
/// kMinValue; values at or above kMaxValue land in an overflow bucket
/// reported as the exact recorded maximum. Sum/mean/min/max are tracked
/// exactly; only the percentiles are bucket-quantized.
class LogHistogram {
 public:
  static constexpr double kMinValue = 1e-3;   // 1 microsecond, in ms.
  static constexpr double kMaxValue = 1e6;    // ~17 minutes, in ms.
  static constexpr int kBucketsPerOctave = 32;

  LogHistogram();

  void Record(double value);

  uint64_t Count() const { return count_; }
  double Mean() const;
  double Max() const;  // Exact; 0 when empty.

  /// Percentile in [0, 100]: rank-interpolated inside the owning
  /// bucket's geometric bounds, clamped to the exact [min, max] so the
  /// extremes never quantize outside the recorded range. 0 when empty.
  double Percentile(double pct) const;

 private:
  size_t BucketOf(double value) const;
  double LowerBound(size_t bucket) const;
  double UpperBound(size_t bucket) const;

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Gini coefficient of a non-negative sample; 0 for empty/degenerate input.
double Gini(const std::vector<double>& values);

/// Pearson correlation; 0 when either side has zero variance.
double PearsonCorrelation(const std::vector<double>& xs,
                          const std::vector<double>& ys);

}  // namespace oscar

#endif  // OSCAR_COMMON_STATS_H_
