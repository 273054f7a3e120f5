// Network: the simulated peer population. Owns the peer table (keys,
// degree budgets, liveness, long links) and the Ring index over alive
// peers. Overlay strategies write links through AddLongLink, which is
// the single place in-degree caps are enforced.
//
// Storage is struct-of-arrays: per-peer attributes live in flat
// parallel vectors and both link directions are pooled into shared
// slabs (peer i's out-links occupy the fixed-capacity region
// [out_base_[i], out_base_[i] + caps_[i].max_out), of which the first
// out_count_[i] entries are live). Degree caps are immutable per peer,
// so slab regions never move once joined: a link insert is one store,
// a global link clear is a count wipe (bulk reclamation — no per-peer
// deallocations), and snapshot freeze/restore are flat array copies.
// This is what keeps million-peer growth cache-dense; the per-peer
// std::vector layout it replaces spent its time in allocator traffic.
//
// Beside the rows the table keeps one derived counter per peer,
// dangling_out_: the dead targets among its out-links. Every mutator
// keeps it exact in the pass it already makes (a crash bumps the
// victim's in-link holders, a clear or prune zeroes it), so a random
// walk step reads its alive degree in O(1) instead of probing every
// neighbor's liveness.

#ifndef OSCAR_CORE_NETWORK_H_
#define OSCAR_CORE_NETWORK_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/key_id.h"
#include "core/ring.h"

namespace oscar {

/// Per-peer degree budget: how many long in-links a peer accepts and how
/// many long out-links it builds. Short (ring) links are not budgeted.
/// Caps are fixed at join time — the slab layout depends on it.
struct DegreeCaps {
  uint32_t max_in = 0;
  uint32_t max_out = 0;
};

/// Non-owning view of a contiguous run of peer ids (a slab region, a
/// CSR row). C++17 stand-in for std::span.
struct PeerSpan {
  const PeerId* ptr = nullptr;
  size_t count = 0;

  const PeerId* begin() const { return ptr; }
  const PeerId* end() const { return ptr + count; }
  size_t size() const { return count; }
  bool empty() const { return count == 0; }
  PeerId operator[](size_t i) const { return ptr[i]; }
};

/// One planned link slot: a sampled target plus an optional alternate
/// (power of two choices). The pair is resolved at APPLY time against
/// live in-loads — resolving it at plan time against a frozen snapshot
/// would herd every planner onto the same stale-low-load targets.
/// alternate == primary when no second sample was drawn.
struct LinkCandidate {
  PeerId primary = 0;
  PeerId alternate = 0;
};

class Network {
 public:
  /// Adds an alive peer and indexes it on the ring. Returns its id.
  PeerId Join(KeyId key, DegreeCaps caps);

  /// Adds `keys.size()` alive peers in one call — ids are assigned in
  /// argument order and the ring index absorbs all entries in a single
  /// merge pass, O(ring + k log k) instead of the O(ring) PER JOIN that
  /// sorted-vector inserts cost (the dominant constant at 10^6 peers).
  /// The resulting network is identical to calling Join() k times.
  /// Returns the id of the first added peer.
  PeerId JoinMany(const std::vector<KeyId>& keys,
                  const std::vector<DegreeCaps>& caps);

  /// Crashes every peer in `victims` (already-dead entries are
  /// skipped), the one crash path. Each victim leaves the ring and
  /// releases the in-degree its out-links held. Dangling in-links *to*
  /// it stay in the owners' out slabs — routers discover them as dead
  /// probes — and each owner's dangling_out count rises by one. Link
  /// surgery is per victim but the ring is filtered in ONE pass, so a
  /// churn-figure crash level costs O(victims * degree + ring) instead
  /// of the O(victims * ring) that per-victim ring erases would pay.
  void CrashMany(const std::vector<PeerId>& victims);

  const Ring& ring() const { return ring_; }
  size_t alive_count() const { return ring_.size(); }
  size_t size() const { return keys_.size(); }

  KeyId key(PeerId id) const { return keys_[id]; }
  bool alive(PeerId id) const { return alive_[id] != 0; }
  DegreeCaps caps(PeerId id) const { return caps_[id]; }
  /// Long in-links currently held against `id` (== InLinks(id).size()).
  uint32_t in_degree(PeerId id) const { return in_count_[id]; }
  /// How many of `id`'s long out-links point at dead peers. Ring
  /// neighbors and in-link holders are alive by invariant, so this is
  /// the only part of a neighbor row a random walk must discount: with
  /// it a walk step counts its alive neighbors in O(1).
  uint32_t dangling_out(PeerId id) const { return dangling_out_[id]; }

  /// Long out-links of `id` in insertion order (may dangle to dead
  /// peers). Valid until the next Join/JoinMany (slab growth may move
  /// the underlying storage).
  PeerSpan OutLinks(PeerId id) const {
    return {out_slab_.data() + out_base_[id], out_count_[id]};
  }
  /// Alive peers holding a long link to `id`, in insertion order.
  PeerSpan InLinks(PeerId id) const {
    return {in_slab_.data() + in_base_[id], in_count_[id]};
  }

  /// Fraction of `id`'s declared in-capacity currently in use — the
  /// load signal power-of-two-choices selection compares.
  double RelativeInLoad(PeerId id) const {
    if (caps_[id].max_in == 0) return 1.0;
    return static_cast<double>(in_count_[id]) /
           static_cast<double>(caps_[id].max_in);
  }

  std::optional<PeerId> OwnerOf(KeyId key) const { return ring_.OwnerOf(key); }

  /// Alive peers in ring (clockwise key) order.
  std::vector<PeerId> AlivePeers() const;

  /// Next/previous alive peer on the ring; nullopt when `id` is the only
  /// alive peer (or dead). For a 1-peer ring a peer has no neighbors.
  std::optional<PeerId> SuccessorOf(PeerId id) const {
    return ring_.Neighbor(id, /*clockwise=*/true);
  }
  std::optional<PeerId> PredecessorOf(PeerId id) const {
    return ring_.Neighbor(id, /*clockwise=*/false);
  }

  /// Adds a long link from -> to. Fails (returns false) on self-links,
  /// dead endpoints, duplicates, and when `to` is at its in-degree cap
  /// or `from` at its out-degree cap.
  bool AddLongLink(PeerId from, PeerId to);

  /// Drops all long out-links of `id`, returning targets' in-degree.
  void ClearLongLinks(PeerId id);

  /// Drops every long link in the network in one pass — the start of a
  /// global checkpoint rewire. Equivalent to ClearLongLinks on every
  /// alive peer but O(N) count wipes with no per-target in-list
  /// searches; each peer whose out- or in-state changes is journaled
  /// exactly once per side (delta restores depend on every changed row
  /// being Touched).
  void ClearAllLongLinks();

  /// Applies a planned candidate list for `from`: resolves each pair's
  /// power-of-two choice against the CURRENT in-loads (live feedback —
  /// earlier applied plans steer later choices, exactly as incremental
  /// construction's p2c did), then tries AddLongLink on the winner,
  /// walking the list until `budget` links have landed or it runs out.
  /// Every accepted link goes through AddLongLink itself, so in/out-
  /// caps, liveness, self and duplicate rejection — and the mutation
  /// journal — behave exactly as in incremental construction. Returns
  /// the number of links added.
  size_t ApplyLinkPlan(PeerId from,
                       const std::vector<LinkCandidate>& candidates,
                       uint32_t budget);

  /// Drops out-links of `id` that point at dead peers; returns the count.
  /// O(1) when dangling_out(id) is 0, as it is for most peers in a
  /// maintenance round that prunes every alive peer.
  size_t PruneDeadLinks(PeerId id);

  /// Remaining out-link budget of an alive peer.
  uint32_t RemainingOutBudget(PeerId id) const {
    const uint32_t used = out_count_[id];
    return caps_[id].max_out > used ? caps_[id].max_out - used : 0;
  }

  /// Full structural self-check, the deep half of the OSCAR_AUDIT
  /// layer (common/audit.h). Verifies every invariant the SoA layout
  /// and the link protocol promise: parallel arrays in lockstep, slab
  /// bases equal to cap prefix sums, degree counters within caps and
  /// matching their slab rows, each dangling_out count equal to the
  /// dead targets in its out row, no self/duplicate out-links, dead peers
  /// holding no link state, in/out reciprocity between alive peers
  /// (every in-link entry backed by exactly one live out-link and vice
  /// versa), and ring <-> peer-table agreement (sorted, exactly the
  /// alive peers, matching keys, the position index pointing back at
  /// each entry and reading kNotOnRing for every dead peer). Returns
  /// the first violation found;
  /// O(N + E * max_in) — checkpoint-granularity cost, not per-hop.
  Status CheckInvariants() const;

 private:
  // audit_test corrupts private state to prove CheckInvariants actually
  // detects each violation class (there is no public path to an invalid
  // network — that is the point of the invariants).
  friend struct NetworkTestAccess;
  // TopologySnapshot::Restore() rebuilds the peer table and ring index
  // directly from its flat arrays (Join/AddLongLink cannot recreate
  // dead peers or dangling links), and RestoreInto() drives the
  // mutation journal below to repair only the peers touched since the
  // last restore.
  friend class TopologySnapshot;

  /// Appends one row to every parallel array (no ring insert).
  PeerId AppendPeer(KeyId key, DegreeCaps caps);

  /// Crash bookkeeping for the holders of `id`'s in-links: each one's
  /// out-link to `id` is about to dangle. Holders are Touched although
  /// their out rows do not change, so a delta restore resets the count.
  void MarkHoldersDangling(PeerId id);

  /// Records `id` as structurally dirty relative to the snapshot this
  /// network was last restored from. Every mutator calls it; it is a
  /// no-op unless a RestoreInto() armed the journal. Once the journal
  /// reaches N entries a delta restore has nothing left to win, so the
  /// journal disarms (forcing the next RestoreInto to a full rebuild)
  /// rather than growing with every further mutation.
  void Touch(PeerId id) {
    if (!journal_active_) return;
    if (journal_.size() >= keys_.size()) {
      journal_active_ = false;
      journal_.clear();
      return;
    }
    journal_.push_back(id);
  }

  // Struct-of-arrays peer table. All vectors are indexed by PeerId and
  // grow in lockstep; out_base_/in_base_ are (N+1)-element prefix sums
  // of the declared caps, so out_base_[i + 1] - out_base_[i] ==
  // caps_[i].max_out is peer i's immutable slab capacity.
  std::vector<KeyId> keys_;
  std::vector<DegreeCaps> caps_;
  std::vector<uint8_t> alive_;
  std::vector<uint64_t> out_base_{0};
  std::vector<uint64_t> in_base_{0};
  std::vector<uint32_t> out_count_;
  std::vector<uint32_t> in_count_;
  // Dead targets among the live out_count_ entries of each row.
  std::vector<uint32_t> dangling_out_;
  std::vector<PeerId> out_slab_;
  std::vector<PeerId> in_slab_;
  Ring ring_;
  // Delta-restore bookkeeping, managed by TopologySnapshot::RestoreInto:
  // which snapshot this network is a restore of (0 = none) and which
  // peers were mutated since.
  uint64_t restore_token_ = 0;
  bool journal_active_ = false;
  std::vector<PeerId> journal_;
};

}  // namespace oscar

#endif  // OSCAR_CORE_NETWORK_H_
