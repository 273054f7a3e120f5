// Simulation: deterministic growth of a network under a key
// distribution, a degree distribution and an overlay strategy, with
// search evaluation at size checkpoints. One seed => one byte-identical
// run (guarded by the deterministic-replay test).

#ifndef OSCAR_CORE_SIMULATION_H_
#define OSCAR_CORE_SIMULATION_H_

#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/network.h"
#include "degree/degree_distribution.h"
#include "keyspace/key_distribution.h"
#include "overlay/overlay.h"
#include "routing/router.h"

namespace oscar {

struct SearchOptions {
  size_t num_queries = 100;
  /// Query-key distribution; nullptr means uniform keys.
  const KeyDistribution* query_distribution = nullptr;
  /// Pick each query's source as the owner of a random uniform key
  /// instead of a uniform alive peer. With a fixed rng seed this keeps
  /// (source, key) pairs aligned across evaluations of differently
  /// crashed copies of the same network — the variance-reduction trick
  /// the churn figures rely on.
  bool source_by_key = false;
  /// Optional per-route observer, invoked once per query with the raw
  /// route (the message-level cross-check compares these hop-by-hop).
  std::function<void(const RouteResult&)> per_route;
};

/// One (source, key) query draw.
struct QuerySample {
  PeerId source = 0;
  KeyId key;
};

/// Draws one query exactly as EvaluateSearch does (same rng consumption
/// order), so an external driver — the message-level simulator — can
/// replay the identical query stream from the same seed. `alive` must
/// be the network's current AlivePeers() list.
QuerySample SampleQuery(NetworkView net, const SearchOptions& options,
                        const std::vector<PeerId>& alive, Rng* rng);

struct SearchEvaluation {
  double avg_cost = 0.0;      // Mean hops + wasted messages per query.
  double p95_cost = 0.0;
  double avg_wasted = 0.0;    // Mean wasted messages per query.
  double success_rate = 0.0;
  size_t num_queries = 0;
};

/// Routes queries from random alive sources and aggregates costs. The
/// one synchronous query loop: the routing-load and latency evaluators
/// are per_route observers over it. Takes the topology through
/// NetworkView, so it routes over a live network or a frozen snapshot
/// alike — the churn figure evaluates its crash levels over snapshots.
SearchEvaluation EvaluateSearch(NetworkView net, Routing routing,
                                const SearchOptions& options, Rng* rng);

/// Factory for the named key distributions the harnesses sweep:
/// "uniform" | "gnutella" | "clustered".
Result<KeyDistributionPtr> MakeKeyDistribution(const std::string& name);

/// Factory for the paper's in-degree distributions (mean 27):
/// "constant" | "realistic" | "stepped".
Result<DegreeDistributionPtr> MakePaperDegreeDistribution(
    const std::string& name);

struct GrowthConfig {
  size_t target_size = 0;
  size_t queries_per_checkpoint = 0;
  uint64_t seed = 0;
  /// Sizes at which the network is rewired and evaluated, ascending.
  /// Empty means a single checkpoint at target_size. Every peer's long
  /// links are rewired at each checkpoint before evaluating (the
  /// paper's periodic global rewiring); joins between checkpoints only
  /// wire the joining peer.
  std::vector<size_t> checkpoints;
  KeyDistributionPtr key_distribution;
  DegreeDistributionPtr degree_distribution;
  OverlayPtr overlay;
  /// Worker threads for the checkpoint-rewiring fan-out (overlays that
  /// support planning freeze the pre-checkpoint topology and plan every
  /// peer concurrently over it). 0 resolves OSCAR_THREADS from the
  /// environment (default 1). The GrowthResult is byte-identical at
  /// any thread count: each peer plans from its own forked rng stream
  /// and plans are applied in a salt-shuffled deterministic order.
  uint32_t rewire_threads = 0;
  /// Joins planned per wave between checkpoints. 0 (default) keeps the
  /// historical sequential path: each joiner wires itself against the
  /// live network via BuildLinks, consuming the main growth rng —
  /// byte-identical to every prior release. k >= 1 switches overlays
  /// that support join planning to the batched path: joiners are
  /// admitted in waves of up to k (Network::JoinMany), each planned
  /// read-only over a shared EPOCH snapshot on its own forked rng
  /// stream (parallel across rewire_threads), then applied in join
  /// order against the live network. Epoch snapshots are refreshed at
  /// deterministic alive-count thresholds (~12.5% growth, and after
  /// every checkpoint rewire), NOT per wave — so the grown topology is
  /// byte-identical for every k >= 1 at every thread count; k trades
  /// snapshot-staleness granularity purely against planning fan-out.
  /// Overlays without join planning ignore this and stay sequential.
  uint32_t join_batch = 0;
  /// Optional per-checkpoint callback (e.g. crash a copy and evaluate
  /// under churn). Runs after the built-in evaluation.
  std::function<Status(const Network&, size_t checkpoint_size, Rng* rng)>
      checkpoint_hook;
};

struct CheckpointResult {
  size_t network_size = 0;
  SearchEvaluation search;
};

struct GrowthResult {
  std::vector<CheckpointResult> checkpoints;
  /// Wall time spent in checkpoint rewiring, summed over checkpoints.
  /// Timing only — never printed by the deterministic harnesses;
  /// consumed by tools/growth_probe for the perf artifact.
  double rewire_wall_ms = 0.0;
  size_t rewire_count = 0;  // Checkpoints that performed a rewire.
};

class Simulation {
 public:
  explicit Simulation(GrowthConfig config);

  /// Grows the network to target_size, evaluating at each checkpoint.
  Result<GrowthResult> Run();

  const Network& network() const { return network_; }
  const GrowthConfig& config() const { return config_; }

 private:
  /// The paper's periodic global rewiring. Planning overlays get the
  /// batch path: freeze, plan all peers (parallel, per-peer forked
  /// rngs), clear, apply in a salt-shuffled deterministic order.
  /// Others rebuild sequentially.
  Status RewireAllPeers(size_t checkpoint_index, uint32_t threads,
                        Rng* rng);

  GrowthConfig config_;
  Network network_;
};

}  // namespace oscar

#endif  // OSCAR_CORE_SIMULATION_H_
