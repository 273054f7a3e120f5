#include "sim/latency_model.h"

#include <cmath>
#include <vector>

#include "common/stats.h"
#include "core/simulation.h"

namespace oscar {
namespace {

constexpr double kMedianMs = 25.0;  // Median per-hop forwarding delay.
constexpr double kSigma = 0.8;      // Lognormal shape (heavy tail).

}  // namespace

double LatencyModel::DelayForKey(KeyId key) {
  // One private splitmix64 stream per peer, keyed by its ring key.
  Rng peer_rng(key.raw ^ 0x5851f42d4c957f2dULL);
  return kMedianMs * std::exp(kSigma * peer_rng.NextGaussian());
}

LatencyEvaluation EvaluateLatency(NetworkView net, Routing routing,
                                  size_t num_queries, Rng* rng) {
  LatencyEvaluation eval;
  std::vector<double> latencies;
  latencies.reserve(num_queries);
  SearchOptions search;
  search.num_queries = num_queries;
  search.per_route = [&](const RouteResult& route) {
    double ms = 0.0;
    for (size_t i = 1; i < route.path.size(); ++i) {
      ms += LatencyModel::DelayForKey(net.key(route.path[i]));
    }
    ms += static_cast<double>(route.wasted) * LatencyModel::kDeadProbeMs;
    latencies.push_back(ms);
  };
  const SearchEvaluation routed = EvaluateSearch(net, routing, search, rng);
  if (latencies.empty()) return eval;

  double total = 0.0;
  for (double ms : latencies) total += ms;
  eval.mean_ms = total / static_cast<double>(latencies.size());
  eval.p50_ms = Percentile(latencies, 50.0);
  eval.p95_ms = Percentile(latencies, 95.0);
  eval.success_rate = routed.success_rate;
  return eval;
}

}  // namespace oscar
