#include "core/simulation.h"

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <chrono>
#include <memory>

#include "common/audit.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/topology_snapshot.h"
#include "degree/constant_degree.h"
#include "degree/spiky_degree.h"
#include "degree/stepped_degree.h"
#include "keyspace/gnutella_distribution.h"

namespace oscar {
namespace {

/// Hands the pages of freed heap blocks back to the OS. A checkpoint
/// rewire frees a frozen snapshot and one plan per peer, O(N * degree)
/// bytes. Once glibc has freed one large block it serves blocks of that
/// size from the heap instead of mmap, and it keeps freed heap pages
/// resident, so without this every further growth in one process (a
/// benchmark repeating its growth, a harness growing per row) starts
/// from a larger resident set. A no-op on other C libraries.
void ReleaseFreedPages() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

}  // namespace

QuerySample SampleQuery(NetworkView net, const SearchOptions& options,
                        const std::vector<PeerId>& alive, Rng* rng) {
  QuerySample sample;
  if (options.source_by_key) {
    sample.source = *net.OwnerOf(KeyId::FromUnit(rng->NextDouble()));
  } else {
    sample.source =
        alive[static_cast<size_t>(rng->UniformInt(alive.size()))];
  }
  sample.key = options.query_distribution != nullptr
                   ? options.query_distribution->Sample(rng)
                   : KeyId::FromUnit(rng->NextDouble());
  return sample;
}

SearchEvaluation EvaluateSearch(NetworkView net, Routing routing,
                                const SearchOptions& options, Rng* rng) {
  SearchEvaluation eval;
  const std::vector<PeerId> alive = net.AlivePeers();
  if (alive.empty() || options.num_queries == 0) return eval;

  std::vector<double> costs;
  costs.reserve(options.num_queries);
  double wasted_total = 0.0;
  size_t successes = 0;
  for (size_t q = 0; q < options.num_queries; ++q) {
    const QuerySample query = SampleQuery(net, options, alive, rng);
    const RouteResult route = Route(routing, net, query.source, query.key);
    if (route.success) ++successes;
    costs.push_back(route.Cost());
    wasted_total += route.wasted;
    if (options.per_route) options.per_route(route);
  }
  double total = 0.0;
  for (double c : costs) total += c;
  eval.num_queries = costs.size();
  eval.avg_cost = total / static_cast<double>(costs.size());
  eval.p95_cost = Percentile(costs, 95.0);
  eval.avg_wasted = wasted_total / static_cast<double>(costs.size());
  eval.success_rate =
      static_cast<double>(successes) / static_cast<double>(costs.size());
  return eval;
}

Result<KeyDistributionPtr> MakeKeyDistribution(const std::string& name) {
  if (name == "uniform") {
    return KeyDistributionPtr(std::make_shared<UniformKeyDistribution>());
  }
  if (name == "gnutella") {
    auto made = GnutellaKeyDistribution::Make();
    if (!made.ok()) return made.status();
    return KeyDistributionPtr(std::make_shared<GnutellaKeyDistribution>(
        std::move(made).value()));
  }
  if (name == "clustered") {
    return KeyDistributionPtr(std::make_shared<ClusteredKeyDistribution>());
  }
  return Status::Error(StrCat("unknown key distribution: '", name,
                              "' (expected uniform|gnutella|clustered)"));
}

Result<DegreeDistributionPtr> MakePaperDegreeDistribution(
    const std::string& name) {
  if (name == "constant") {
    auto made = ConstantDegreeDistribution::Make(27, 27);
    if (!made.ok()) return made.status();
    return DegreeDistributionPtr(std::make_shared<ConstantDegreeDistribution>(
        std::move(made).value()));
  }
  if (name == "realistic") {
    return DegreeDistributionPtr(std::make_shared<SpikyDegreeDistribution>(
        SpikyDegreeDistribution::Paper()));
  }
  if (name == "stepped") {
    return DegreeDistributionPtr(std::make_shared<SteppedDegreeDistribution>());
  }
  return Status::Error(StrCat("unknown degree distribution: '", name,
                              "' (expected constant|realistic|stepped)"));
}

Simulation::Simulation(GrowthConfig config) : config_(std::move(config)) {}

Status Simulation::RewireAllPeers(size_t checkpoint_index, uint32_t threads,
                                  Rng* rng) {
  // The paper's periodic global rewiring: recompute everyone's
  // partitions now that N has changed since they joined.
  if (config_.overlay->SupportsPlanning()) {
    // Batch path, modelling peers that rewire concurrently from what
    // they observe: freeze the pre-checkpoint topology once, plan every
    // peer's cuts and links read-only over the frozen snapshot, then
    // clear and apply (salt-shuffled order, see below). One salt draw
    // keeps the growth
    // stream advancing identically regardless of N or thread count;
    // each peer's plan runs on its own Fork()ed stream, so the plan set
    // is independent of scheduling — byte-identical at any OSCAR_THREADS.
    const uint64_t rewire_salt = rng->Next();
    const TopologySnapshot frozen(network_);
    const std::vector<PeerId> peers = network_.AlivePeers();
    std::vector<PeerLinkPlan> plans(peers.size());
    const Overlay& overlay = *config_.overlay;
    // Distinct domain-separation constants keep the three derived
    // stream families (per-peer planning, apply shuffle) and the salt
    // itself decorrelated (fractional parts of sqrt(3) and of the
    // golden ratio's cousin — arbitrary odd mixing words).
    constexpr uint64_t kPlanStreamSalt = 0xbb67ae8584caa73bULL;
    ParallelFor(threads, peers.size(), [&](size_t i) {
      Rng peer_rng = Rng::Fork(rewire_salt ^ kPlanStreamSalt,
                               checkpoint_index, peers[i]);
      plans[i] = overlay.PlanLinks(frozen, peers[i], &peer_rng);
    });
    network_.ClearAllLongLinks();
    // Apply in a salt-shuffled (deterministic) order: ring order would
    // hand every in-cap contention win to the same key-space locality
    // wave, skewing who keeps links under saturation.
    std::vector<size_t> order(peers.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng shuffle_rng(rewire_salt ^ 0x5bf03635d51f3a4dULL);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1],
                order[static_cast<size_t>(shuffle_rng.UniformInt(i))]);
    }
    uint64_t sampling_steps = 0;
    for (size_t i = 0; i < peers.size(); ++i) {
      network_.ApplyLinkPlan(peers[order[i]], plans[order[i]].candidates,
                             plans[order[i]].budget);
      sampling_steps += plans[order[i]].sampling_steps;
    }
    config_.overlay->AddSamplingSteps(sampling_steps);
    return Status::Ok();
  }
  // Sequential rebuild for overlays without a planner (oracle
  // constructions): clear everything, then re-link each peer in ring
  // order against the mutating network — the historical path, kept
  // byte-identical for those overlays.
  for (PeerId peer : network_.AlivePeers()) {
    network_.ClearLongLinks(peer);
  }
  for (PeerId peer : network_.AlivePeers()) {
    const Status status = config_.overlay->BuildLinks(&network_, peer, rng);
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

Result<GrowthResult> Simulation::Run() {
  if (config_.target_size == 0) {
    return Status::Error("growth: target_size must be positive");
  }
  if (config_.key_distribution == nullptr) {
    return Status::Error("growth: key_distribution not set");
  }
  if (config_.degree_distribution == nullptr) {
    return Status::Error("growth: degree_distribution not set");
  }
  if (config_.overlay == nullptr) {
    return Status::Error("growth: overlay not set");
  }
  std::vector<size_t> checkpoints = config_.checkpoints;
  if (checkpoints.empty()) checkpoints.push_back(config_.target_size);
  std::sort(checkpoints.begin(), checkpoints.end());
  checkpoints.erase(
      std::unique(checkpoints.begin(), checkpoints.end()),
      checkpoints.end());
  if (checkpoints.back() > config_.target_size) {
    return Status::Error(
        StrCat("growth: checkpoint ", checkpoints.back(),
               " beyond target size ", config_.target_size));
  }

  Rng rng(config_.seed);
  GrowthResult result;
  size_t next_checkpoint = 0;
  const uint32_t threads = config_.rewire_threads != 0
                               ? config_.rewire_threads
                               : ThreadCountFromEnv();

  // Batched join planning (join_batch > 0 on a join-planning overlay):
  // joiners are admitted in waves and planned read-only over a shared
  // EPOCH snapshot. The epoch — not the wave — is the determinism
  // boundary: snapshots refresh at alive-count thresholds (~12.5%
  // growth, plus after every checkpoint rewire) that do not depend on
  // the wave size, each joiner plans on a stream forked from
  // (epoch_salt, epoch_index, its peer id), and plans are applied in
  // join order. Every quantity a plan can observe is therefore a
  // function of alive counts and peer ids alone, which is what makes
  // the grown topology byte-identical for every k >= 1 at every thread
  // count (guarded by the batch-join determinism test).
  const bool batch_joins =
      config_.join_batch > 0 && config_.overlay->SupportsJoinPlanning();
  std::unique_ptr<TopologySnapshot> epoch;
  uint64_t epoch_salt = 0;
  uint64_t epoch_index = 0;
  size_t epoch_refresh_at = 0;
  // Domain separation for the per-joiner planning streams, distinct
  // from the rewire-path salts (arbitrary odd mixing word).
  constexpr uint64_t kJoinStreamSalt = 0x3c6ef372fe94f82bULL;
  const auto refresh_epoch = [&]() {
    epoch_salt = rng.Next();
    ++epoch_index;
    epoch = std::make_unique<TopologySnapshot>(network_);
    // Every joiner in the epoch plans over this frozen view; a
    // malformed freeze would fan corruption into the whole wave.
    if (AuditEnabled()) {
      const Status audit = epoch->Validate();
      OSCAR_AUDIT(audit.ok(), "epoch snapshot: " + audit.message());
    }
    const size_t base = network_.alive_count();
    epoch_refresh_at = base + std::max<size_t>(size_t{1}, base / 8);
  };
  if (batch_joins) refresh_epoch();

  while (network_.alive_count() < config_.target_size) {
    if (batch_joins) {
      // Wave size: up to join_batch, clipped so the wave lands exactly
      // on the next epoch-refresh, checkpoint, or target boundary —
      // boundaries are alive-count facts, never wave-size facts.
      const size_t alive = network_.alive_count();
      size_t wave = std::min<size_t>(config_.join_batch,
                                     config_.target_size - alive);
      wave = std::min(wave, epoch_refresh_at - alive);
      if (next_checkpoint < checkpoints.size()) {
        wave = std::min(wave, checkpoints[next_checkpoint] - alive);
      }
      // Keys and degrees are drawn from the main rng in join order —
      // the sequential path's exact per-join consumption order.
      std::vector<KeyId> keys(wave);
      std::vector<DegreeCaps> caps(wave);
      for (size_t i = 0; i < wave; ++i) {
        keys[i] = config_.key_distribution->Sample(&rng);
        caps[i] = config_.degree_distribution->Sample(&rng);
      }
      const PeerId first = network_.JoinMany(keys, caps);
      const Overlay& overlay = *config_.overlay;
      const TopologySnapshot& frozen = *epoch;
      std::vector<PeerLinkPlan> plans(wave);
      ParallelFor(threads, wave, [&](size_t i) {
        Rng joiner_rng =
            Rng::Fork(epoch_salt ^ kJoinStreamSalt, epoch_index,
                      first + static_cast<PeerId>(i));
        plans[i] =
            overlay.PlanJoinLinks(frozen, keys[i], caps[i], &joiner_rng);
      });
      // Apply in join order against the live network: p2c pairs resolve
      // against the loads earlier joiners' links just produced, exactly
      // as they would joining one at a time.
      uint64_t sampling_steps = 0;
      for (size_t i = 0; i < wave; ++i) {
        network_.ApplyLinkPlan(first + static_cast<PeerId>(i),
                               plans[i].candidates, plans[i].budget);
        sampling_steps += plans[i].sampling_steps;
      }
      config_.overlay->AddSamplingSteps(sampling_steps);
    } else {
      const PeerId id =
          network_.Join(config_.key_distribution->Sample(&rng),
                        config_.degree_distribution->Sample(&rng));
      const Status built = config_.overlay->BuildLinks(&network_, id, &rng);
      if (!built.ok()) return built;
    }

    while (next_checkpoint < checkpoints.size() &&
           network_.alive_count() == checkpoints[next_checkpoint]) {
      const auto rewire_start = std::chrono::steady_clock::now();
      const Status rewired = RewireAllPeers(next_checkpoint, threads, &rng);
      if (!rewired.ok()) return rewired;
      result.rewire_wall_ms +=
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - rewire_start)
              .count();
      ++result.rewire_count;
      ReleaseFreedPages();
      // A global rewire touches every peer's link state — the widest
      // mutation in the system, and the one the structural audit is
      // cheapest relative to.
      if (AuditEnabled()) {
        const Status audit = network_.CheckInvariants();
        OSCAR_AUDIT(audit.ok(), "post-rewire network: " + audit.message());
      }
      CheckpointResult checkpoint;
      checkpoint.network_size = network_.alive_count();
      SearchOptions search;
      search.num_queries = config_.queries_per_checkpoint;
      search.query_distribution = config_.key_distribution.get();
      checkpoint.search =
          EvaluateSearch(network_, Routing::kGreedy, search, &rng);
      result.checkpoints.push_back(checkpoint);
      if (config_.checkpoint_hook) {
        const Status status = config_.checkpoint_hook(
            network_, checkpoint.network_size, &rng);
        if (!status.ok()) return status;
      }
      ++next_checkpoint;
      // The rewire replaced every long link: plans drawn against the
      // pre-checkpoint epoch would be stale by a whole rewire.
      if (batch_joins) refresh_epoch();
    }
    if (batch_joins && network_.alive_count() >= epoch_refresh_at) {
      refresh_epoch();
    }
  }
  if (AuditEnabled()) {
    const Status audit = network_.CheckInvariants();
    OSCAR_AUDIT(audit.ok(), "grown network: " + audit.message());
  }
  return result;
}

}  // namespace oscar
