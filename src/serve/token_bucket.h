// Deterministic token-bucket traffic shaping in virtual time, plus the
// open-loop arrival generator built on it. Tokens refill continuously
// at `rate_per_s` up to a `burst` ceiling; each admission spends one
// token, and when the bucket is dry AcquireAt reports the earliest
// future instant a token will exist instead of blocking. Everything is
// pure arithmetic over virtual milliseconds — no clocks, no sleeping —
// so a (seed, rate, burst) triple always produces the same arrival
// schedule, which is the substrate of oscar_serve's byte-identical
// summaries.

#ifndef OSCAR_SERVE_TOKEN_BUCKET_H_
#define OSCAR_SERVE_TOKEN_BUCKET_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace oscar {

class TokenBucket {
 public:
  /// rate_per_s <= 0 builds an unlimited bucket (every acquire succeeds
  /// immediately) — the "rate limiting off" mode. burst is clamped to
  /// at least one token so a valid bucket can always make progress.
  TokenBucket(double rate_per_s, double burst);

  /// Spends one token at the earliest instant >= now_ms one exists,
  /// and returns that instant. This is the shaping primitive: a demand
  /// event at `now_ms` is released at AcquireAt(now_ms).
  double AcquireAt(double now_ms);

  bool unlimited() const { return rate_per_ms_ <= 0.0; }

 private:
  void RefillTo(double now_ms);

  double rate_per_ms_;
  double burst_;
  double tokens_;
  double last_ms_ = 0.0;
};

/// Open-loop arrival schedule for `count` lookups: Poisson demand at
/// `offered_per_s` (exponential inter-arrival gaps drawn from `seed`
/// via a private forked stream) shaped through a TokenBucket of the
/// same sustained rate with `burst` tokens of depth. Demand that
/// outruns the bucket is released, in order, as tokens refill — short
/// Poisson clumps up to `burst` pass through intact, longer ones are
/// smoothed to the sustained rate. The result is sorted and
/// non-negative.
///
/// offered_per_s <= 0 means rate limiting off: every arrival is at
/// t = 0 (the pure firehose burst — maximum instantaneous overload).
std::vector<double> GenerateArrivalsMs(size_t count, double offered_per_s,
                                       double burst, uint64_t seed);

}  // namespace oscar

#endif  // OSCAR_SERVE_TOKEN_BUCKET_H_
