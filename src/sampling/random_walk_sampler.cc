#include "sampling/random_walk_sampler.h"

#include <algorithm>

#include "routing/route_stepper.h"

namespace oscar {
namespace {

/// Steps before the first membership test.
constexpr uint32_t kBurnIn = 12;
/// Steps between membership tests.
constexpr uint32_t kTestStride = 6;
/// Rejection budget before falling back.
constexpr uint32_t kMaxWalkSteps = 72;
/// Segments at or below this population are served from the successor
/// list instead (uniform pick, one message per peer enumerated):
/// rejection-walking into a sliver of the ring is hopeless, and every
/// DHT node maintains its near neighborhood anyway.
constexpr uint32_t kSuccessorListCutoff = 48;
/// When the rejection budget is exhausted the sampler routes to a
/// random key in the segment and spreads the landing over this many
/// clockwise successors. Taking the owner alone would be gap-biased:
/// peers in dense clusters own almost no key space, get starved of
/// in-links, lose walk degree, and the starvation feeds back.
constexpr uint32_t kFallbackSpread = 8;
/// Metropolis-Hastings acceptance floor. Pure MH (accept with
/// deg_u/deg_v) makes the walk uniform over peers but traps it at
/// low-degree nodes — a freshly joined peer with two ring links would
/// reject ~93% of its escape moves. The floor bounds the trap at
/// 1/floor expected steps and still removes most of the degree bias.
constexpr double kMhFloor = 0.3;

/// Where a rejection walk ended: on a peer inside the segment (found),
/// or at its final position with the budget exhausted (the fallback
/// range walk starts there).
struct WalkOutcome {
  bool found = false;
  PeerId current = 0;
  uint64_t steps = 0;
};

/// The degree-corrected (Metropolis-Hastings, clamped) random walk over
/// the undirected gossip graph; mixes in O(log N) on a small world.
/// Membership is tested at stride intervals only — testing every step
/// would bias samples toward the segment boundary nearest the origin.
/// The uniform pick needs only (alive count, k-th alive neighbor) and
/// the MH correction only the two neighborhood sizes, so both rows are
/// read in place and the current peer's row is reused after a move.
/// Both reads are O(1) per row (NeighborRow::CountAlive/KthAlive): the
/// backend's dangling_out count stands in for a liveness probe of every
/// neighbor, and only a row with a dead out-link scans its out part.
///
/// A proposal is an alive neighbor, so it is on the ring, and its ring
/// part holds min(n - 1, 2) peers: its successor, and its predecessor
/// unless that is the same peer, which distinct ring ids rule out for
/// n >= 3. Its degree is therefore that count plus its alive long
/// links, known before its ring entries are read.
template <typename Topo>
WalkOutcome Walk(const Topo& topo, PeerId origin, KeyId from, KeyId to,
                 std::vector<PeerId>* visit_trace, Rng* rng) {
  WalkOutcome out;
  PeerId current = origin;
  if (visit_trace != nullptr) visit_trace->push_back(current);
  const uint32_t total_steps = kBurnIn + kMaxWalkSteps;
  // Walks run only on segments of more than kSuccessorListCutoff peers,
  // so the ring is not empty.
  const size_t ring_neighbors = std::min<size_t>(topo.ring().size() - 1, 2);
  NeighborRow row = NeighborRowOf(topo, current, topo.ring().PosOf(current),
                                  /*with_in_links=*/true);
  size_t degree = row.CountAlive();
  for (uint32_t step = 0; step < total_steps; ++step) {
    if (step >= kBurnIn && (step - kBurnIn) % kTestStride == 0 &&
        InClockwiseSegment(topo.key(current), from, to)) {
      out.found = true;
      break;
    }
    if (degree == 0) break;
    const PeerId proposal =
        row.KthAlive(topo, static_cast<size_t>(rng->UniformInt(degree)));
    const NeighborRow proposal_row =
        NeighborRowOf(topo, proposal, topo.ring().PosOf(proposal),
                      /*with_in_links=*/true);
    const size_t proposal_degree = ring_neighbors + proposal_row.AliveLinks();
    ++out.steps;
    if (proposal_degree == 0) continue;
    const double accept =
        std::max(kMhFloor, static_cast<double>(degree) /
                               static_cast<double>(proposal_degree));
    if (rng->NextDouble() < accept) {
      current = proposal;
      row = proposal_row;
      degree = proposal_degree;
      if (visit_trace != nullptr) visit_trace->push_back(current);
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
  if (count <= kSuccessorListCutoff) {
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
    return Walk(topo, origin, from, to, options_.visit_trace, rng);
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
  // One stepper per thread: planning workers share this const sampler,
  // and a reused stepper keeps its buffers, so a fallback allocates
  // nothing once the thread has routed a route as long.
  thread_local GreedyStepper stepper;
  const RouteResult& route = stepper.Run(net, walk.current, probe);
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
  uint32_t hops = static_cast<uint32_t>(rng->UniformInt(kFallbackSpread));
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
