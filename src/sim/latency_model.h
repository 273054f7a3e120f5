// Wall-clock pricing of routes (extension X10): per-peer lognormal
// forwarding delays plus a fixed probe timeout charged for every wasted
// message (dead probe or backtrack). The hop price is one pure function
// of the peer's ring key, shared by EvaluateLatency and the
// message-level simulator.

#ifndef OSCAR_SIM_LATENCY_MODEL_H_
#define OSCAR_SIM_LATENCY_MODEL_H_

#include <cstddef>

#include "core/network_view.h"
#include "core/rng.h"
#include "routing/router.h"

namespace oscar {

class LatencyModel {
 public:
  /// Cost of probing a dead peer.
  static constexpr double kDeadProbeMs = 500.0;

  /// The forwarding delay of a peer whose ring key is `key`: lognormal
  /// (median 25 ms, sigma 0.8) from a hash of the key — a property of
  /// the peer, not of any rng stream position. This keeps delays
  /// identical between a network and a crashed copy of it even when a
  /// crash pass consumed rng draws in between (the common-random-numbers
  /// discipline the churn comparisons rely on), and gives peers joining
  /// mid-run stable, stream-independent delays.
  static double DelayForKey(KeyId key);
};

struct LatencyEvaluation {
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double success_rate = 0.0;
};

/// Routes `num_queries` uniform-key queries from random alive sources
/// (EvaluateSearch's query loop) and prices each route: DelayForKey of
/// every peer the route reaches, plus kDeadProbeMs per wasted message.
LatencyEvaluation EvaluateLatency(NetworkView net, Routing routing,
                                  size_t num_queries, Rng* rng);

}  // namespace oscar

#endif  // OSCAR_SIM_LATENCY_MODEL_H_
