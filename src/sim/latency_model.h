// Wall-clock pricing of routes (extension X10): per-peer lognormal
// forwarding delays plus a fixed probe timeout charged for every wasted
// message (dead probe or backtrack).

#ifndef OSCAR_SIM_LATENCY_MODEL_H_
#define OSCAR_SIM_LATENCY_MODEL_H_

#include <cstddef>
#include <vector>

#include "core/network.h"
#include "core/rng.h"
#include "routing/router.h"

namespace oscar {

class LatencyModel {
 public:
  /// Cost of probing a dead peer.
  static constexpr double kDeadProbeMs = 500.0;

  /// Assigns each peer a lognormal delay (median 25 ms, sigma 0.8)
  /// derived from a hash of its ring key — a property of the peer, not
  /// of any rng stream position. This keeps delays identical between a
  /// network and a crashed copy of it even when a crash pass consumed
  /// rng draws in between (the common-random-numbers discipline the
  /// churn comparisons rely on).
  explicit LatencyModel(const Network& net);

  double HopDelayMs(PeerId id) const { return delays_ms_[id]; }

  /// The delay assigned to a peer whose ring key is `key` — a pure
  /// function of the key. Shared with the message-level simulator so
  /// peers joining mid-run get the same stable, stream-independent
  /// delays the constructor precomputes.
  static double DelayForKey(KeyId key);

 private:
  std::vector<double> delays_ms_;
};

struct LatencyEvaluation {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double success_rate = 0.0;
};

/// Routes `num_queries` uniform-key queries from random alive sources
/// and prices each route through the model.
LatencyEvaluation EvaluateLatency(const Network& net, const Router& router,
                                  const LatencyModel& model,
                                  size_t num_queries, Rng* rng);

}  // namespace oscar

#endif  // OSCAR_SIM_LATENCY_MODEL_H_
