#include "sim/latency_model.h"

#include <cmath>

#include "common/stats.h"

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

LatencyModel::LatencyModel(const Network& net) {
  delays_ms_.reserve(net.size());
  for (size_t i = 0; i < net.size(); ++i) {
    delays_ms_.push_back(DelayForKey(net.key(static_cast<PeerId>(i))));
  }
}

LatencyEvaluation EvaluateLatency(const Network& net, const Router& router,
                                  const LatencyModel& model,
                                  size_t num_queries, Rng* rng) {
  LatencyEvaluation eval;
  const std::vector<PeerId> alive = net.AlivePeers();
  if (alive.empty() || num_queries == 0) return eval;

  std::vector<double> latencies;
  latencies.reserve(num_queries);
  size_t successes = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    const PeerId source =
        alive[static_cast<size_t>(rng->UniformInt(alive.size()))];
    const KeyId key = KeyId::FromUnit(rng->NextDouble());
    const RouteResult route = router.Route(net, source, key);
    if (route.success) ++successes;
    double ms = 0.0;
    for (size_t i = 1; i < route.path.size(); ++i) {
      ms += model.HopDelayMs(route.path[i]);
    }
    ms += static_cast<double>(route.wasted) * LatencyModel::kDeadProbeMs;
    latencies.push_back(ms);
  }
  double total = 0.0;
  for (double ms : latencies) total += ms;
  eval.mean_ms = total / static_cast<double>(latencies.size());
  eval.p50_ms = Percentile(latencies, 50.0);
  eval.p95_ms = Percentile(latencies, 95.0);
  eval.success_rate =
      static_cast<double>(successes) / static_cast<double>(num_queries);
  return eval;
}

}  // namespace oscar
