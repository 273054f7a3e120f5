// Ring: the sorted key index over alive peers. Supports ownership
// lookup, clockwise order statistics (CountInSegment, rank queries) and
// neighbor queries — the substrate every overlay and router builds on.
//
// Beside the sorted entries the Ring keeps a position index by PeerId,
// so PosOf(id) — the read every route hop and walk step starts from —
// is one array load on a live Network and on a frozen snapshot alike.
// Every mutator keeps it exact inside the pass it already makes: an
// entry that moves is renumbered where it is written, so a single
// Insert pays O(size) for the shifted tail (the same order as the
// sorted-vector shift itself), and the batched InsertMany and
// RemoveIdsIf renumber in their one merge or filter pass. RemoveIdsIf
// is the only removal. Each id may
// sit on the ring at most once (Network's peers do).

#ifndef OSCAR_CORE_RING_H_
#define OSCAR_CORE_RING_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/key_id.h"

namespace oscar {

/// Peers are dense indices into Network's peer table.
using PeerId = uint32_t;

class Ring {
 public:
  struct Entry {
    uint64_t key_raw;
    PeerId id;
    friend bool operator<(const Entry& a, const Entry& b) {
      return a.key_raw != b.key_raw ? a.key_raw < b.key_raw : a.id < b.id;
    }
    friend bool operator==(const Entry& a, const Entry& b) {
      return a.key_raw == b.key_raw && a.id == b.id;
    }
  };

  /// PosOf's answer for an id that is not on the ring.
  static constexpr uint32_t kNotOnRing = UINT32_MAX;

  /// Precondition: `id` is not on the ring.
  void Insert(KeyId key, PeerId id);
  /// Inserts every entry in `added` (any order) in one backward merge
  /// pass — O(size + k log k) total where k sorted-vector Inserts would
  /// cost O(k * size). Identical result to inserting them one by one;
  /// Network::JoinMany is the caller that makes batched joins cheap.
  /// Precondition: no id in `added` is on the ring or repeated.
  void InsertMany(std::vector<Entry> added);
  /// Removes every entry whose id satisfies `pred` in one filter pass,
  /// O(size) however many entries go — Network::CrashMany's ring
  /// update. Survivor order is unchanged.
  template <typename Pred>
  void RemoveIdsIf(Pred pred) {
    size_t put = 0;
    for (size_t read = 0; read < entries_.size(); ++read) {
      const Entry entry = entries_[read];
      if (pred(entry.id)) {
        pos_[entry.id] = kNotOnRing;
      } else {
        Put(put++, entry);
      }
    }
    entries_.resize(put);
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Position of `id` in ring order, or kNotOnRing when it is absent.
  /// O(1): the index every mutator keeps exact.
  uint32_t PosOf(PeerId id) const {
    return id < pos_.size() ? pos_[id] : kNotOnRing;
  }

  /// The next (clockwise) or previous entry's id around `id`; nullopt
  /// when `id` is absent or alone on the ring.
  std::optional<PeerId> Neighbor(PeerId id, bool clockwise) const {
    const uint32_t pos = PosOf(id);
    const size_t n = entries_.size();
    if (pos == kNotOnRing || n < 2) return std::nullopt;
    if (clockwise) return entries_[pos + 1 == n ? 0 : pos + 1].id;
    return entries_[pos == 0 ? n - 1 : pos - 1].id;
  }

  /// The alive peer closest to `key` by shortest-way ring distance
  /// (ties broken clockwise). nullopt on an empty ring.
  std::optional<PeerId> OwnerOf(KeyId key) const;

  /// True iff the entry at `index` owns `key`: exactly
  /// `OwnerOf(key) == at(index).id`, decided in O(1) from the entries
  /// beside `index` instead of a binary search. Precondition:
  /// index < size().
  bool OwnsAt(size_t index, KeyId key) const;

  /// Number of alive peers whose key lies in the clockwise segment
  /// [from, to). from == to denotes the empty segment.
  size_t CountInSegment(KeyId from, KeyId to) const;

  /// The `offset`-th alive peer clockwise within [from, to); nullopt when
  /// the segment holds fewer than offset+1 peers.
  std::optional<PeerId> NthInSegment(KeyId from, KeyId to,
                                     size_t offset) const;

  /// First alive peer at or clockwise-after `key` (wrapping).
  std::optional<PeerId> SuccessorOfKey(KeyId key) const;

  const Entry& at(size_t index) const { return entries_[index]; }

  /// True when both rings hold the same entries and the same positions.
  friend bool operator==(const Ring& a, const Ring& b);

 private:
  // audit_test corrupts the position index to prove the audits see it.
  friend struct RingTestAccess;

  // Position of the first entry with key_raw >= raw (== size() if none).
  size_t LowerBound(uint64_t raw) const;
  // Writes `entry` at `index` and records the position.
  void Put(size_t index, const Entry& entry) {
    entries_[index] = entry;
    pos_[entry.id] = static_cast<uint32_t>(index);
  }
  // Extends the position index so it covers `id`.
  void Cover(PeerId id) {
    if (id >= pos_.size()) pos_.resize(size_t{id} + 1, kNotOnRing);
  }

  std::vector<Entry> entries_;  // Sorted by (key_raw, id).
  // pos_[id] == index of id's entry, or kNotOnRing; ids past the end
  // are absent.
  std::vector<uint32_t> pos_;
};

}  // namespace oscar

#endif  // OSCAR_CORE_RING_H_
