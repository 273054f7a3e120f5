#include "metrics/routing_load_metrics.h"

#include <algorithm>

#include "common/stats.h"
#include "core/simulation.h"

namespace oscar {

RoutingLoadReport EvaluateRoutingLoad(NetworkView net, Routing routing,
                                      const RoutingLoadOptions& options,
                                      Rng* rng) {
  RoutingLoadReport report;
  const std::vector<PeerId> alive = net.AlivePeers();
  if (alive.empty() || options.num_queries == 0) return report;

  std::vector<double> load(net.size(), 0.0);
  SearchOptions search;
  search.num_queries = options.num_queries;
  search.query_distribution = options.query_distribution;
  search.per_route = [&load](const RouteResult& route) {
    // Everyone who forwarded the message pays; the terminal only serves.
    for (size_t i = 0; i + 1 < route.path.size(); ++i) {
      load[route.path[i]] += 1.0;
    }
  };
  EvaluateSearch(net, routing, search, rng);

  std::vector<double> loads, capacities, relative;
  loads.reserve(alive.size());
  double total = 0.0;
  for (PeerId id : alive) {
    const uint32_t max_in = net.caps(id).max_in;
    loads.push_back(load[id]);
    capacities.push_back(static_cast<double>(max_in));
    relative.push_back(max_in > 0
                           ? load[id] / static_cast<double>(max_in)
                           : 0.0);
    total += load[id];
  }
  report.mean_load = total / static_cast<double>(alive.size());
  if (report.mean_load > 0.0) {
    report.peak_to_mean = Percentile(loads, 90.0) / report.mean_load;
    report.max_to_mean =
        *std::max_element(loads.begin(), loads.end()) / report.mean_load;
  }
  report.budget_relative_gini = Gini(relative);
  report.load_capacity_correlation = PearsonCorrelation(loads, capacities);
  return report;
}

}  // namespace oscar
