#include "sampling/random_walk_sampler.h"

#include <algorithm>

#include "routing/greedy_router.h"

namespace oscar {
namespace {

/// Where a rejection walk ended: on a peer inside the segment (found),
/// or at its final position with the budget exhausted (the fallback
/// range walk starts there).
struct WalkOutcome {
  bool found = false;
  PeerId current = 0;
  uint64_t steps = 0;
};

template <typename Topo>
size_t CountAlive(const Topo& topo, const NeighborRow& row) {
  size_t count = 0;
  row.ForEach([&](PeerId n) { count += topo.alive(n) ? 1 : 0; });
  return count;
}

/// The k-th (0-based) alive peer of `row`; precondition k < count.
template <typename Topo>
PeerId KthAlive(const Topo& topo, const NeighborRow& row, size_t k) {
  PeerId picked = 0;
  size_t seen = 0;
  row.ForEach([&](PeerId n) {
    if (!topo.alive(n)) return;
    if (seen == k) picked = n;
    ++seen;
  });
  return picked;
}

/// The degree-corrected (Metropolis-Hastings, clamped) random walk over
/// the undirected gossip graph; mixes in O(log N) on a small world.
/// Membership is tested at stride intervals only — testing every step
/// would bias samples toward the segment boundary nearest the origin.
/// The uniform pick needs only (alive count, k-th alive neighbor) and
/// the MH correction only the two neighborhood sizes, so both rows are
/// read in place and the current peer's row is reused after a move.
template <typename Topo>
WalkOutcome Walk(const Topo& topo, PeerId origin, KeyId from, KeyId to,
                 const RandomWalkOptions& options, Rng* rng) {
  WalkOutcome out;
  PeerId current = origin;
  if (options.visit_trace != nullptr) options.visit_trace->push_back(current);
  const uint32_t total_steps = options.burn_in + options.max_walk_steps;
  NeighborRow row = NeighborRowOf(topo, current, topo.ring().PosOf(current),
                                  /*with_in_links=*/true);
  size_t degree = CountAlive(topo, row);
  for (uint32_t step = 0; step < total_steps; ++step) {
    if (step >= options.burn_in &&
        (step - options.burn_in) % options.test_stride == 0 &&
        InClockwiseSegment(topo.key(current), from, to)) {
      out.found = true;
      break;
    }
    if (degree == 0) break;
    const PeerId proposal = KthAlive(
        topo, row, static_cast<size_t>(rng->UniformInt(degree)));
    const NeighborRow proposal_row =
        NeighborRowOf(topo, proposal, topo.ring().PosOf(proposal),
                      /*with_in_links=*/true);
    const size_t proposal_degree = CountAlive(topo, proposal_row);
    ++out.steps;
    if (proposal_degree == 0) continue;
    const double accept = std::max(
        options.mh_floor, static_cast<double>(degree) /
                              static_cast<double>(proposal_degree));
    if (rng->NextDouble() < accept) {
      current = proposal;
      row = proposal_row;
      degree = proposal_degree;
      if (options.visit_trace != nullptr) {
        options.visit_trace->push_back(current);
      }
    }
  }
  out.current = current;
  return out;
}

}  // namespace

Result<SegmentSample> RandomWalkSegmentSampler::SampleInSegment(
    NetworkView net, PeerId origin, KeyId from, KeyId to,
    Rng* rng) const {
  const size_t count = net.ring().CountInSegment(from, to);
  if (count == 0) {
    return Status::Error("random-walk sampler: empty segment");
  }
  if (count <= options_.successor_list_cutoff) {
    // Successor-list path: enumerate the segment (one message per peer)
    // and pick uniformly. The ring index is shared by both backends.
    const auto peer = net.ring().NthInSegment(
        from, to, static_cast<size_t>(rng->UniformInt(count)));
    if (!peer.has_value()) {
      return Status::Error("random-walk sampler: ring index out of sync");
    }
    return SegmentSample{*peer, count};
  }
  const WalkOutcome walk = net.Visit([&](const auto& topo) {
    return Walk(topo, origin, from, to, options_, rng);
  });
  if (walk.found) return SegmentSample{walk.current, walk.steps};
  uint64_t steps = walk.steps;
  // Fallback range walk: route to a uniformly random key inside the
  // segment, then de-bias the gap-weighted landing by hopping a random
  // number of clockwise successors (staying inside the segment).
  const double span = static_cast<double>(ClockwiseDistance(from, to)) /
                      18446744073709551616.0;
  const KeyId probe =
      KeyId::FromRaw(from.raw + KeyId::FromUnit(rng->NextDouble() * span).raw);
  const RouteResult route = GreedyRouter().Route(net, walk.current, probe);
  steps += route.hops + route.wasted;
  PeerId landed = route.terminal;
  if (!InClockwiseSegment(net.key(landed), from, to)) {
    // The owner of the probe key can sit just outside a sparse segment;
    // snap to the segment's first clockwise peer.
    const auto first = net.ring().SuccessorOfKey(from);
    if (!first.has_value() ||
        !InClockwiseSegment(net.key(*first), from, to)) {
      return Status::Error("random-walk sampler: segment unreachable");
    }
    landed = *first;
    ++steps;
  }
  const uint32_t spread = std::max(1u, options_.fallback_spread);
  uint32_t hops = static_cast<uint32_t>(rng->UniformInt(spread));
  for (; hops > 0; --hops) {
    const auto next = net.SuccessorOf(landed);
    if (!next.has_value() ||
        !InClockwiseSegment(net.key(*next), from, to)) {
      break;
    }
    landed = *next;
    ++steps;
  }
  return SegmentSample{landed, steps};
}

}  // namespace oscar
