// NetworkView: one read interface over the two topology backends — a
// live, mutable Network and a frozen TopologySnapshot. It is a cheap
// value type (two pointers) constructed implicitly from either backend,
// so every read-side consumer (route steppers, samplers, size
// estimators, structural metrics) is written once and runs unchanged
// against a growing network or a shared snapshot. Both backends expose
// the same Ring, so ring queries are forwarded without translation.
//
// Per-call accessors branch on the backend once per read. Hot loops
// (route steps, random walks, the gap estimator) instead call Visit()
// once and run a template over the concrete backend, reading each
// peer's links through NeighborRowOf below — the one place the
// neighbor order routers and walks depend on is written down. A walk
// row also carries the peer's dangling out-link count, which both
// backends keep, so a walk step's degree and neighbor pick are O(1).
//
// A view does not own its backend: it is valid only while the Network
// or TopologySnapshot it was built from is alive, and reads through a
// view of a Network observe mutations immediately (exactly like the
// const Network& parameters it replaces).

#ifndef OSCAR_CORE_NETWORK_VIEW_H_
#define OSCAR_CORE_NETWORK_VIEW_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "core/key_id.h"
#include "core/network.h"
#include "core/ring.h"
#include "core/topology_snapshot.h"

namespace oscar {

class NetworkView {
 public:
  // Implicit by design: every `const Network&` read signature upgraded
  // to NetworkView keeps its call sites source-compatible.
  NetworkView(const Network& net) : net_(&net) {}           // NOLINT
  NetworkView(const TopologySnapshot& snap) : snap_(&snap) {}  // NOLINT

  /// The frozen backend, or nullptr when this view reads a live
  /// Network. Algorithms do not branch on it (they go through Visit);
  /// it tells observers which backend a call ran over.
  const TopologySnapshot* snapshot() const { return snap_; }

  /// Calls fn(backend) with the concrete `const Network&` or `const
  /// TopologySnapshot&` and returns its result: the backend is chosen
  /// once per call instead of once per read. `fn` is typically a generic
  /// lambda forwarding to a template over the backend type.
  template <typename Fn>
  decltype(auto) Visit(Fn&& fn) const {
    return net_ ? fn(*net_) : fn(*snap_);
  }

  size_t size() const { return net_ ? net_->size() : snap_->size(); }
  size_t alive_count() const { return ring().size(); }
  const Ring& ring() const { return net_ ? net_->ring() : snap_->ring(); }

  KeyId key(PeerId id) const {
    return net_ ? net_->key(id) : snap_->key(id);
  }
  bool alive(PeerId id) const {
    return net_ ? net_->alive(id) : snap_->alive(id);
  }
  DegreeCaps caps(PeerId id) const {
    return net_ ? net_->caps(id) : snap_->caps(id);
  }

  /// Long out-links of `id` in stored order (may dangle to dead peers).
  PeerSpan OutLinks(PeerId id) const {
    return net_ ? net_->OutLinks(id) : snap_->OutLinks(id);
  }
  /// Alive peers holding a long link to `id`.
  PeerSpan InLinks(PeerId id) const {
    return net_ ? net_->InLinks(id) : snap_->InLinks(id);
  }

  std::optional<PeerId> OwnerOf(KeyId target) const {
    return ring().OwnerOf(target);
  }
  std::optional<PeerId> SuccessorOf(PeerId id) const {
    return ring().Neighbor(id, /*clockwise=*/true);
  }
  std::optional<PeerId> PredecessorOf(PeerId id) const {
    return ring().Neighbor(id, /*clockwise=*/false);
  }

  /// Alive peers in ring (clockwise key) order — composed from the
  /// shared ring index rather than dispatched per backend.
  std::vector<PeerId> AlivePeers() const {
    std::vector<PeerId> out;
    out.reserve(ring().size());
    for (const Ring::Entry& entry : ring().entries()) out.push_back(entry.id);
    return out;
  }

 private:
  const Network* net_ = nullptr;
  const TopologySnapshot* snap_ = nullptr;
};

/// One peer's neighbor row, read in place from the backend: the ring
/// successor, the predecessor when distinct (both always alive), the
/// long out-links in stored order (possibly dead) and, for walk rows,
/// the peers holding long links TO the peer. Routers use the first
/// three parts; random walks use all four — walking only out-links
/// concentrates the stationary distribution on already-popular peers.
/// The spans are valid until the backend next mutates.
///
/// Only out-links can be dead: ring neighbors are on the ring, and
/// in-link holders are alive because a dead peer holds no link state.
/// A walk row carries the backend's dangling_out count, so its alive
/// neighbors are counted in O(1) and indexed in O(1) whenever no
/// out-link dangles (CountAlive/KthAlive); only a row with a dead
/// out-link scans, and then only its out part.
struct NeighborRow {
  PeerId ring[2] = {0, 0};
  uint32_t ring_count = 0;
  // Dead entries of `out`; set for walk rows (with_in_links) only.
  uint32_t dangling = 0;
  PeerSpan out;
  PeerSpan in;

  /// Alive entries of a walk row, repeats included.
  size_t CountAlive() const { return ring_count + AliveLinks(); }

  /// Alive long-link entries of a walk row (out and in), repeats
  /// included: CountAlive without the ring part.
  size_t AliveLinks() const { return out.size() - dangling + in.size(); }

  /// The k-th (0-based) alive entry of a walk row in ForEach order;
  /// precondition k < CountAlive().
  template <typename Topo>
  PeerId KthAlive(const Topo& topo, size_t k) const {
    if (k < ring_count) return ring[k];
    k -= ring_count;
    if (dangling == 0) {
      // Every entry is alive, so k indexes out ++ in directly. A random
      // k makes "out or in?" a coin flip the branch predictor loses, so
      // the span and the index are picked by data, not by a branch
      // (gcc turns a ternary between the two spans back into a jump).
      const size_t in_part = k >= out.size();
      const PeerId* const bases[2] = {out.ptr, in.ptr};
      return bases[in_part][k - in_part * out.size()];
    }
    const size_t alive_out = out.size() - dangling;
    if (k >= alive_out) return in[k - alive_out];
    for (PeerId target : out) {
      if (!topo.alive(target)) continue;
      if (k == 0) return target;
      --k;
    }
    return 0;  // Unreachable while dangling matches the out row.
  }

  /// Invokes fn(neighbor) in row order. Routers and walks are
  /// order-sensitive, so this order is part of the simulation's output.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (uint32_t i = 0; i < ring_count; ++i) fn(ring[i]);
    for (PeerId target : out) fn(target);
    for (PeerId source : in) fn(source);
  }
};

/// Builds `id`'s neighbor row over either backend from its ring
/// position `pos` (topo.ring().PosOf(id), one O(1) read of the ring's
/// position index on either backend; the caller looks it up once so a
/// route step can reuse it for its ownership test). `with_in_links`
/// adds the in-link span and the dangling count random walks need.
template <typename Topo>
inline NeighborRow NeighborRowOf(const Topo& topo, PeerId id, uint32_t pos,
                                 bool with_in_links) {
  NeighborRow row;
  const Ring& ring = topo.ring();
  const size_t n = ring.size();
  if (n >= 2 && pos != Ring::kNotOnRing) {
    // Compare-and-wrap, not `%`: a 64-bit division per neighbor is the
    // dearest instruction of a route step.
    const PeerId succ = ring.at(pos + 1 == n ? 0 : pos + 1).id;
    const PeerId pred = ring.at(pos == 0 ? n - 1 : pos - 1).id;
    row.ring[row.ring_count++] = succ;
    if (pred != succ) row.ring[row.ring_count++] = pred;
  }
  row.out = topo.OutLinks(id);
  if (with_in_links) {
    row.in = topo.InLinks(id);
    row.dangling = topo.dangling_out(id);
  }
  return row;
}

}  // namespace oscar

#endif  // OSCAR_CORE_NETWORK_VIEW_H_
