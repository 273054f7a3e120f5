#include "core/ring.h"

#include <algorithm>

namespace oscar {

size_t Ring::LowerBound(uint64_t raw) const {
  const Entry probe{raw, 0};
  return static_cast<size_t>(
      std::lower_bound(entries_.begin(), entries_.end(), probe) -
      entries_.begin());
}

void Ring::Insert(KeyId key, PeerId id) {
  const Entry entry{key.raw, id};
  Cover(id);
  const size_t at = static_cast<size_t>(
      std::lower_bound(entries_.begin(), entries_.end(), entry) -
      entries_.begin());
  // Shift the tail up one slot and renumber it in the same backward
  // pass. The position stores land at scattered ids; prefetching each
  // one kPrefetch entries ahead keeps them from stalling the shift
  // (it halved the insert time of 100k sequential joins).
  constexpr size_t kPrefetch = 16;
  entries_.push_back(entry);
  for (size_t i = entries_.size() - 1; i > at; --i) {
    if (i > at + kPrefetch) {
      __builtin_prefetch(&pos_[entries_[i - 1 - kPrefetch].id], 1);
    }
    Put(i, entries_[i - 1]);
  }
  Put(at, entry);
}

void Ring::InsertMany(std::vector<Entry> added) {
  if (added.empty()) return;
  if (added.size() == 1) {
    Insert(KeyId::FromRaw(added.front().key_raw), added.front().id);
    return;
  }
  std::sort(added.begin(), added.end());
  PeerId max_id = 0;
  for (const Entry& entry : added) max_id = std::max(max_id, entry.id);
  Cover(max_id);
  // Backward in-place merge: one O(existing + added) pass instead of an
  // O(existing) memmove per insert — the difference between O(N^2) and
  // O(N) ring maintenance over a million-peer join stream. Every slot
  // it writes is renumbered as it is written; the slots below the
  // lowest one it reaches keep their entries and positions.
  const size_t old_size = entries_.size();
  entries_.resize(old_size + added.size());
  size_t read = old_size;
  size_t put = entries_.size();
  size_t from_new = added.size();
  while (from_new > 0) {
    if (read > 0 && added[from_new - 1] < entries_[read - 1]) {
      Put(--put, entries_[--read]);
    } else {
      Put(--put, added[--from_new]);
    }
  }
}

std::optional<PeerId> Ring::OwnerOf(KeyId key) const {
  if (entries_.empty()) return std::nullopt;
  const size_t n = entries_.size();
  const size_t succ = LowerBound(key.raw) % n;
  const size_t pred = (succ + n - 1) % n;
  const KeyId succ_key = KeyId::FromRaw(entries_[succ].key_raw);
  const KeyId pred_key = KeyId::FromRaw(entries_[pred].key_raw);
  // Closest wins; the clockwise successor wins ties.
  if (RingDistance(key, succ_key) <= RingDistance(key, pred_key)) {
    return entries_[succ].id;
  }
  return entries_[pred].id;
}

bool Ring::OwnsAt(size_t index, KeyId key) const {
  const size_t n = entries_.size();
  if (n == 1) return true;
  const size_t prev = index == 0 ? n - 1 : index - 1;
  const size_t next = index + 1 == n ? 0 : index + 1;
  // OwnerOf's successor is LowerBound(key) % n: the first entry of the
  // run of keys >= key, wrapping past the last entry to entry 0.
  const auto is_successor = [&](size_t i) {
    const uint64_t k = entries_[i].key_raw;
    if (i == 0) return key.raw <= k || key.raw > entries_[n - 1].key_raw;
    return entries_[i - 1].key_raw < key.raw && key.raw <= k;
  };
  const KeyId here = KeyId::FromRaw(entries_[index].key_raw);
  if (is_successor(index)) {
    // The successor wins ties against its predecessor.
    return RingDistance(key, here) <=
           RingDistance(key, KeyId::FromRaw(entries_[prev].key_raw));
  }
  if (is_successor(next)) {  // `index` is the predecessor.
    return RingDistance(key, here) <
           RingDistance(key, KeyId::FromRaw(entries_[next].key_raw));
  }
  return false;
}

size_t Ring::CountInSegment(KeyId from, KeyId to) const {
  if (entries_.empty() || from == to) return 0;
  const size_t i_from = LowerBound(from.raw);
  const size_t i_to = LowerBound(to.raw);
  if (from.raw < to.raw) return i_to - i_from;
  return entries_.size() - i_from + i_to;  // Segment wraps the seam.
}

std::optional<PeerId> Ring::NthInSegment(KeyId from, KeyId to,
                                         size_t offset) const {
  if (offset >= CountInSegment(from, to)) return std::nullopt;
  const size_t start = LowerBound(from.raw);
  return entries_[(start + offset) % entries_.size()].id;
}

std::optional<PeerId> Ring::SuccessorOfKey(KeyId key) const {
  if (entries_.empty()) return std::nullopt;
  return entries_[LowerBound(key.raw) % entries_.size()].id;
}

bool operator==(const Ring& a, const Ring& b) {
  if (a.entries_ != b.entries_) return false;
  const size_t ids = std::max(a.pos_.size(), b.pos_.size());
  for (PeerId id = 0; id < ids; ++id) {
    if (a.PosOf(id) != b.PosOf(id)) return false;
  }
  return true;
}

}  // namespace oscar
