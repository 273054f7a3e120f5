// Ring: the sorted key index over alive peers. Supports ownership
// lookup, clockwise order statistics (CountInSegment, rank queries) and
// neighbor queries — the substrate every overlay and router builds on.

#ifndef OSCAR_CORE_RING_H_
#define OSCAR_CORE_RING_H_

#include <algorithm>
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

  void Insert(KeyId key, PeerId id);
  /// Inserts every entry in `added` (any order) in one backward merge
  /// pass — O(size + k log k) total where k sorted-vector Inserts would
  /// cost O(k * size). Identical result to inserting them one by one;
  /// Network::JoinMany is the caller that makes batched joins cheap.
  void InsertMany(std::vector<Entry> added);
  void Remove(KeyId key, PeerId id);

  /// Removes every entry whose id satisfies `pred` in one filter pass —
  /// O(size) total instead of O(size) per removal, the batched form
  /// Network::CrashMany uses. Survivor order is unchanged, so the
  /// result is identical to removing the same entries one by one.
  template <typename Pred>
  void RemoveIdsIf(Pred pred) {
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const Entry& e) { return pred(e.id); }),
                   entries_.end());
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const std::vector<Entry>& entries() const { return entries_; }

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

  /// Clockwise rank from the peer owning position `from_idx` — helpers
  /// for link-geometry metrics. `IndexOf` returns the position of the
  /// entry (key,id) in ring order, or nullopt if absent.
  std::optional<size_t> IndexOf(KeyId key, PeerId id) const;
  const Entry& at(size_t index) const { return entries_[index]; }

 private:
  // Position of the first entry with key_raw >= raw (== size() if none).
  size_t LowerBound(uint64_t raw) const;

  std::vector<Entry> entries_;  // Sorted by (key_raw, id).
};

}  // namespace oscar

#endif  // OSCAR_CORE_RING_H_
