#include "serve/token_bucket.h"

#include <algorithm>
#include <cmath>

#include "core/rng.h"

namespace oscar {

TokenBucket::TokenBucket(double rate_per_s, double burst)
    : rate_per_ms_(rate_per_s / 1000.0),
      burst_(std::max(1.0, burst)),
      tokens_(std::max(1.0, burst)) {}

void TokenBucket::RefillTo(double now_ms) {
  if (now_ms <= last_ms_) return;
  tokens_ = std::min(burst_, tokens_ + (now_ms - last_ms_) * rate_per_ms_);
  last_ms_ = now_ms;
}

double TokenBucket::AcquireAt(double now_ms) {
  if (unlimited()) return now_ms;
  RefillTo(now_ms);
  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    return now_ms;
  }
  // Earliest instant the fractional deficit refills to one whole token.
  const double wait_ms = (1.0 - tokens_) / rate_per_ms_;
  const double ready_ms = last_ms_ + wait_ms;
  RefillTo(ready_ms);
  tokens_ -= 1.0;
  return ready_ms;
}

std::vector<double> GenerateArrivalsMs(size_t count, double offered_per_s,
                                       double burst, uint64_t seed) {
  std::vector<double> arrivals(count, 0.0);
  if (count == 0 || offered_per_s <= 0.0) return arrivals;

  // Stream 0x5e72e is the serve-arrival channel; forking rather than
  // sharing the caller's rng keeps the schedule a pure function of
  // (seed, rate, burst) no matter what else the caller drew.
  Rng rng = Rng::Fork(seed, 0x5e72e, 0);
  TokenBucket bucket(offered_per_s, burst);
  const double mean_gap_ms = 1000.0 / offered_per_s;
  double demand_ms = 0.0;
  for (size_t i = 0; i < count; ++i) {
    // Exponential inter-arrival gap; 1 - u keeps log's argument in
    // (0, 1] (NextDouble can return exactly 0).
    demand_ms += -std::log(1.0 - rng.NextDouble()) * mean_gap_ms;
    arrivals[i] = bucket.AcquireAt(demand_ms);
  }
  return arrivals;
}

}  // namespace oscar
