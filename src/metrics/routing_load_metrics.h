// Routing-load metrics (extension X7): every forwarded message charged
// to the forwarding peer, under a skewed query workload. The queries
// are EvaluateSearch's (a per_route observer counts the forwards), so
// the load table and the search-cost tables draw queries one way.

#ifndef OSCAR_METRICS_ROUTING_LOAD_METRICS_H_
#define OSCAR_METRICS_ROUTING_LOAD_METRICS_H_

#include <cstddef>

#include "core/network_view.h"
#include "keyspace/key_distribution.h"
#include "routing/router.h"

namespace oscar {

struct RoutingLoadOptions {
  size_t num_queries = 0;
  /// Query keys; nullptr means uniform.
  const KeyDistribution* query_distribution = nullptr;
};

struct RoutingLoadReport {
  double mean_load = 0.0;      // Mean forwarded messages per alive peer.
  /// Hotspot factor: the 90th-percentile peer load over the mean. The
  /// busy tail of the distribution characterizes structural hotspots;
  /// the single maximum is dominated by order-statistic noise at
  /// realistic query volumes and is not comparable across overlays.
  double peak_to_mean = 0.0;
  /// The raw maximum over the mean, for callers that do want the
  /// extreme order statistic.
  double max_to_mean = 0.0;
  /// Gini of load normalized by declared capacity (in-degree cap):
  /// 0 == everyone carries traffic proportional to what they offered.
  double budget_relative_gini = 0.0;
  /// Pearson correlation between per-peer load and declared capacity.
  double load_capacity_correlation = 0.0;
};

RoutingLoadReport EvaluateRoutingLoad(NetworkView net, Routing routing,
                                      const RoutingLoadOptions& options,
                                      Rng* rng);

}  // namespace oscar

#endif  // OSCAR_METRICS_ROUTING_LOAD_METRICS_H_
