// TopologySnapshot: an immutable, cache-friendly freeze of a Network's
// read state. Peer attributes live in flat parallel arrays and both
// link directions are CSR-packed (offsets + one contiguous edge array),
// so a snapshot is one allocation-light pass to build, cheap to copy,
// and safe to share across threads or scenario replays. Restore()
// materializes a fresh mutable Network that is structurally identical
// to the one the snapshot was taken from — the substrate for replaying
// many crash/churn variants against one grown topology instead of
// regrowing or deep-copying it.
//
// CSR offsets are 64-bit, the width Network's slab bases use, so no
// edge total can overflow them. The snapshot also freezes each peer's
// dangling_out count, so a walk over it reads the alive degree in O(1)
// exactly as a walk over the live Network does.

#ifndef OSCAR_CORE_TOPOLOGY_SNAPSHOT_H_
#define OSCAR_CORE_TOPOLOGY_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"
#include "core/key_id.h"
#include "core/network.h"
#include "core/ring.h"

namespace oscar {

class TopologySnapshot {
 public:
  TopologySnapshot() = default;
  /// Freezes `net` in one pass over its flat peer table (bulk copies of
  /// the key/caps/alive arrays, slab rows packed into CSR).
  explicit TopologySnapshot(const Network& net);

  size_t size() const { return keys_.size(); }
  size_t alive_count() const { return ring_.size(); }
  KeyId key(PeerId id) const { return keys_[id]; }
  bool alive(PeerId id) const { return alive_[id] != 0; }
  DegreeCaps caps(PeerId id) const { return caps_[id]; }
  /// Network::dangling_out at freeze time: dead targets in OutLinks(id).
  uint32_t dangling_out(PeerId id) const { return dangling_out_[id]; }
  const Ring& ring() const { return ring_; }

  /// Long out-links of `id`, in the exact order the live Network held
  /// them (possibly dangling to dead peers). In-links are the alive
  /// peers that held a link to `id` at freeze time.
  PeerSpan OutLinks(PeerId id) const {
    const uint64_t begin = out_offsets_[id];
    return {out_edges_.data() + begin,
            static_cast<size_t>(out_offsets_[id + 1] - begin)};
  }
  PeerSpan InLinks(PeerId id) const {
    const uint64_t begin = in_offsets_[id];
    return {in_edges_.data() + begin,
            static_cast<size_t>(in_offsets_[id + 1] - begin)};
  }

  std::optional<PeerId> OwnerOf(KeyId key) const { return ring_.OwnerOf(key); }

  /// Ring neighbors, read through the frozen ring's position index
  /// exactly as Network::SuccessorOf / PredecessorOf read the live one.
  std::optional<PeerId> SuccessorOf(PeerId id) const {
    return ring_.Neighbor(id, /*clockwise=*/true);
  }
  std::optional<PeerId> PredecessorOf(PeerId id) const {
    return ring_.Neighbor(id, /*clockwise=*/false);
  }

  /// Materializes a mutable Network structurally identical to the one
  /// this snapshot froze (peer order, link order, ring index). A
  /// restore is what churn experiments crash instead of deep-copying
  /// the grown network once per crash level.
  Network Restore() const;

  /// Restore() into a caller-owned Network, arming its mutation
  /// journal. The first call (or a call on a network restored from a
  /// different snapshot) is a full rebuild that reuses `net`'s existing
  /// allocations; every later call repairs ONLY the peers mutated since
  /// the previous restore — O(touched) instead of O(N) — plus one ring
  /// copy. The result is always structurally identical to Restore()
  /// (guarded by the delta-restore identity test); the journal is how
  /// fig2's per-crash-level restores and oscar_sim's per-scenario
  /// replays skip rebuilding the untouched bulk of the peer table.
  void RestoreInto(Network* net) const;

  /// Whether CSR offsets are 64-bit: always, since there is one width.
  bool wide_offsets() const { return true; }

  /// Deep structural self-check, the snapshot half of the OSCAR_AUDIT
  /// layer (common/audit.h): CSR offsets sized to the peer table,
  /// monotone and closed by the edge totals, row lengths within the
  /// declared caps, dangling_out counts equal to the dead targets of
  /// each out row, in-edges only from alive holders, out->in
  /// reciprocity between alive endpoints, and the ring and its position
  /// index agreeing with the peer table. Returns the first violation
  /// found.
  Status Validate() const;

  /// Delta-restore identity audit: verifies `net` (typically produced
  /// by RestoreInto's journal-driven repair path) is structurally
  /// identical to a fresh full Restore() of this snapshot — the
  /// equivalence the mutation journal promises. O(N + E): audit-only,
  /// called behind OSCAR_AUDIT at restore granularity.
  Status CheckRestoreIdentity(const Network& net) const;

 private:
  // audit_test corrupts private state to prove Validate() detects each
  // violation class (no public path builds an invalid snapshot).
  friend struct TopologySnapshotTestAccess;

  std::vector<KeyId> keys_;
  std::vector<DegreeCaps> caps_;
  std::vector<uint8_t> alive_;
  std::vector<uint32_t> dangling_out_;
  // CSR link storage: row i spans [offsets[i], offsets[i + 1]).
  std::vector<uint64_t> out_offsets_;
  std::vector<uint64_t> in_offsets_;
  std::vector<PeerId> out_edges_;
  std::vector<PeerId> in_edges_;
  // The frozen ring, position index included: PosOf reads stay O(1).
  Ring ring_;
  // Identity for delta restores: RestoreInto() only trusts a network's
  // mutation journal when the network was last restored from a snapshot
  // carrying this token (0 = default-constructed, never matches).
  uint64_t token_ = 0;
};

}  // namespace oscar

#endif  // OSCAR_CORE_TOPOLOGY_SNAPSHOT_H_
