#include "metrics/message_metrics.h"

#include <algorithm>

#include "common/stats.h"

namespace oscar {

LatencySummary SummarizeLatency(std::vector<double> samples_ms) {
  // The shared log-bucket histogram (also behind serve/load_generator)
  // instead of sort-based exact percentiles: constant memory, O(n)
  // instead of O(n log n), and ~2% bucket quantization on the
  // percentiles — well inside the run-to-run spread the message-level
  // summaries tolerate. Mean and max stay exact.
  LatencySummary summary;
  if (samples_ms.empty()) return summary;
  LogHistogram hist;
  for (double ms : samples_ms) hist.Record(ms);
  summary.mean_ms = hist.Mean();
  summary.max_ms = hist.Max();
  summary.p50_ms = hist.Percentile(50.0);
  summary.p95_ms = hist.Percentile(95.0);
  summary.p99_ms = hist.Percentile(99.0);
  return summary;
}

void ConcurrencyTracker::Add(double now_ms, int delta) {
  if (!started_) {
    started_ = true;
    first_ms_ = last_ms_ = now_ms;
  }
  if (now_ms > last_ms_) {
    integral_ += static_cast<double>(current_) * (now_ms - last_ms_);
    last_ms_ = now_ms;
  }
  if (delta < 0 && static_cast<size_t>(-delta) > current_) {
    current_ = 0;
  } else {
    current_ += delta;
  }
  peak_ = std::max(peak_, current_);
}

double ConcurrencyTracker::TimeWeightedMean(double now_ms) const {
  if (!started_) return 0.0;
  double integral = integral_;
  if (now_ms > last_ms_) {
    integral += static_cast<double>(current_) * (now_ms - last_ms_);
  }
  const double span = std::max(now_ms, last_ms_) - first_ms_;
  // A zero-length observation window (everything happened at one
  // instant) degenerates to the current gauge value.
  return span > 0.0 ? integral / span : static_cast<double>(current_);
}

PeerLoadSummary SummarizePeerLoad(const std::vector<uint64_t>& counts) {
  PeerLoadSummary summary;
  summary.population = counts.size();
  if (counts.empty()) return summary;
  std::vector<double> values;
  values.reserve(counts.size());
  uint64_t total = 0;
  for (uint64_t c : counts) {
    summary.max = std::max(summary.max, c);
    total += c;
    values.push_back(static_cast<double>(c));
  }
  summary.mean = static_cast<double>(total) /
                 static_cast<double>(counts.size());
  summary.peak_to_mean =
      summary.mean > 0.0 ? static_cast<double>(summary.max) / summary.mean
                         : 0.0;
  summary.gini = Gini(values);
  return summary;
}

}  // namespace oscar
