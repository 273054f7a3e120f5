#include "core/network.h"

#include <algorithm>
#include <string>

namespace oscar {
namespace {

std::string PeerContext(const char* what, PeerId id) {
  return std::string(what) + " at peer " + std::to_string(id);
}

}  // namespace

PeerId Network::AppendPeer(KeyId key, DegreeCaps caps) {
  const PeerId id = static_cast<PeerId>(keys_.size());
  keys_.push_back(key);
  caps_.push_back(caps);
  alive_.push_back(1);
  out_base_.push_back(out_base_.back() + caps.max_out);
  in_base_.push_back(in_base_.back() + caps.max_in);
  out_count_.push_back(0);
  in_count_.push_back(0);
  dangling_out_.push_back(0);
  out_slab_.resize(out_base_.back());
  in_slab_.resize(in_base_.back());
  return id;
}

void Network::MarkHoldersDangling(PeerId id) {
  const PeerId* in_row = in_slab_.data() + in_base_[id];
  for (uint32_t i = 0; i < in_count_[id]; ++i) {
    ++dangling_out_[in_row[i]];
    Touch(in_row[i]);
  }
}

PeerId Network::Join(KeyId key, DegreeCaps caps) {
  const PeerId id = AppendPeer(key, caps);
  ring_.Insert(key, id);
  Touch(id);
  return id;
}

PeerId Network::JoinMany(const std::vector<KeyId>& keys,
                         const std::vector<DegreeCaps>& caps) {
  const PeerId first = static_cast<PeerId>(keys_.size());
  std::vector<Ring::Entry> entries;
  entries.reserve(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    const PeerId id = AppendPeer(keys[i], caps[i]);
    entries.push_back({keys[i].raw, id});
    Touch(id);
  }
  ring_.InsertMany(std::move(entries));
  return first;
}

void Network::CrashMany(const std::vector<PeerId>& victims) {
  size_t newly_dead = 0;
  for (PeerId id : victims) {
    if (!alive_[id]) continue;
    ClearLongLinks(id);  // Release the in-degree this peer's links held.
    MarkHoldersDangling(id);
    alive_[id] = 0;
    in_count_[id] = 0;
    Touch(id);
    ++newly_dead;
  }
  if (newly_dead == 0) return;
  // After the liveness flips above, the only dead ids still on the ring
  // are exactly the victims: drop them in one pass.
  ring_.RemoveIdsIf([this](PeerId id) { return alive_[id] == 0; });
}

std::vector<PeerId> Network::AlivePeers() const {
  std::vector<PeerId> out;
  out.reserve(ring_.size());
  for (const Ring::Entry& entry : ring_.entries()) out.push_back(entry.id);
  return out;
}

bool Network::AddLongLink(PeerId from, PeerId to) {
  if (from == to) return false;
  if (!alive_[from] || !alive_[to]) return false;
  if (out_count_[from] >= caps_[from].max_out) return false;
  if (in_count_[to] >= caps_[to].max_in) return false;
  PeerId* out_row = out_slab_.data() + out_base_[from];
  const uint32_t out_used = out_count_[from];
  if (std::find(out_row, out_row + out_used, to) != out_row + out_used) {
    return false;
  }
  out_row[out_used] = to;
  ++out_count_[from];
  in_slab_[in_base_[to] + in_count_[to]] = from;
  ++in_count_[to];
  Touch(from);
  Touch(to);
  return true;
}

void Network::ClearLongLinks(PeerId id) {
  const PeerId* out_row = out_slab_.data() + out_base_[id];
  const uint32_t out_used = out_count_[id];
  for (uint32_t i = 0; i < out_used; ++i) {
    const PeerId target = out_row[i];
    if (!alive_[target]) continue;
    PeerId* in_row = in_slab_.data() + in_base_[target];
    PeerId* in_end = in_row + in_count_[target];
    PeerId* it = std::find(in_row, in_end, id);
    if (it != in_end) {
      // Order-preserving erase, exactly as the vector layout behaved —
      // walk order over in-links is physics, not an implementation
      // detail.
      std::copy(it + 1, in_end, it);
      --in_count_[target];
      Touch(target);
    }
  }
  out_count_[id] = 0;
  dangling_out_[id] = 0;
  Touch(id);
}

void Network::ClearAllLongLinks() {
  for (PeerId id = 0; id < keys_.size(); ++id) {
    if (!alive_[id]) continue;  // Dead peers hold no link state.
    bool changed = false;
    if (out_count_[id] != 0) {
      out_count_[id] = 0;
      dangling_out_[id] = 0;
      changed = true;
    }
    if (in_count_[id] != 0) {
      in_count_[id] = 0;
      changed = true;
    }
    if (changed) Touch(id);
  }
}

size_t Network::ApplyLinkPlan(PeerId from,
                              const std::vector<LinkCandidate>& candidates,
                              uint32_t budget) {
  size_t added = 0;
  for (const LinkCandidate& candidate : candidates) {
    if (added >= budget) break;
    PeerId to = candidate.primary;
    if (candidate.alternate != candidate.primary &&
        RelativeInLoad(candidate.alternate) <
            RelativeInLoad(candidate.primary)) {
      to = candidate.alternate;
    }
    if (AddLongLink(from, to)) {
      ++added;
    } else if (candidate.alternate != candidate.primary) {
      // The pair's winner was refused (saturated by earlier plans, or
      // already linked): a peer holding two sampled candidates falls
      // back to the other one before burning a backup slot.
      const PeerId other =
          to == candidate.primary ? candidate.alternate : candidate.primary;
      if (AddLongLink(from, other)) ++added;
    }
  }
  return added;
}

Status Network::CheckInvariants() const {
  const size_t n = keys_.size();
  // Parallel arrays grow in lockstep; bases are (N+1) cap prefix sums.
  if (caps_.size() != n || alive_.size() != n || out_count_.size() != n ||
      in_count_.size() != n || dangling_out_.size() != n ||
      out_base_.size() != n + 1 || in_base_.size() != n + 1) {
    return Status::Error("parallel peer arrays out of lockstep");
  }
  if (out_base_[0] != 0 || in_base_[0] != 0) {
    return Status::Error("slab base prefix sums do not start at 0");
  }
  for (PeerId id = 0; id < n; ++id) {
    if (out_base_[id + 1] - out_base_[id] != caps_[id].max_out) {
      return Status::Error(PeerContext("out slab row != max_out cap", id));
    }
    if (in_base_[id + 1] - in_base_[id] != caps_[id].max_in) {
      return Status::Error(PeerContext("in slab row != max_in cap", id));
    }
  }
  if (out_slab_.size() < out_base_[n] || in_slab_.size() < in_base_[n]) {
    return Status::Error("slab storage smaller than its base extent");
  }
  size_t alive_total = 0;
  for (PeerId id = 0; id < n; ++id) {
    if (alive_[id] != 0 && alive_[id] != 1) {
      return Status::Error(PeerContext("alive flag not 0/1", id));
    }
    alive_total += alive_[id];
    // Degree counters never exceed the declared caps (AddLongLink's
    // cap gate is the only writer that may advance them).
    if (out_count_[id] > caps_[id].max_out) {
      return Status::Error(PeerContext("out degree exceeds cap", id));
    }
    if (in_count_[id] > caps_[id].max_in) {
      return Status::Error(PeerContext("in degree exceeds cap", id));
    }
    // CrashMany() clears both sides; dead peers hold no link state.
    if (!alive_[id] && (out_count_[id] != 0 || in_count_[id] != 0)) {
      return Status::Error(PeerContext("dead peer holds link state", id));
    }
    const PeerSpan out = OutLinks(id);
    uint32_t dangling = 0;
    for (size_t i = 0; i < out.size(); ++i) {
      const PeerId target = out[i];
      if (target >= n) {
        return Status::Error(PeerContext("out-link beyond peer table", id));
      }
      dangling += alive_[target] ? 0 : 1;
      if (target == id) {
        return Status::Error(PeerContext("self link", id));
      }
      for (size_t j = i + 1; j < out.size(); ++j) {
        if (out[j] == target) {
          return Status::Error(PeerContext("duplicate out-link", id));
        }
      }
      // Reciprocity, out -> in: a live link must be registered exactly
      // once in the target's in row. (Dangling links to dead targets
      // are legal — routers discover them as dead probes.)
      if (alive_[target]) {
        const PeerSpan in = InLinks(target);
        const size_t hits =
            static_cast<size_t>(std::count(in.begin(), in.end(), id));
        if (hits != 1) {
          return Status::Error(
              PeerContext("out-link not mirrored exactly once in target", id));
        }
      }
    }
    if (dangling != dangling_out_[id]) {
      return Status::Error(PeerContext("dangling out-link count drift", id));
    }
    // Reciprocity, in -> out: every in-link entry names an alive holder
    // whose out row contains this peer.
    const PeerSpan in = InLinks(id);
    for (PeerId holder : in) {
      if (holder >= n) {
        return Status::Error(PeerContext("in-link beyond peer table", id));
      }
      if (!alive_[holder]) {
        return Status::Error(PeerContext("in-link from dead holder", id));
      }
      const PeerSpan holder_out = OutLinks(holder);
      if (std::find(holder_out.begin(), holder_out.end(), id) ==
          holder_out.end()) {
        return Status::Error(
            PeerContext("in-link without matching out-link", id));
      }
    }
  }
  // Ring <-> peer table agreement: sorted (key, id) order, exactly the
  // alive peers, each with its table key and its position index entry.
  if (ring_.size() != alive_total) {
    return Status::Error("ring size != alive peer count");
  }
  std::vector<uint8_t> on_ring(n, 0);
  for (size_t pos = 0; pos < ring_.size(); ++pos) {
    const Ring::Entry& entry = ring_.at(pos);
    if (entry.id >= n) {
      return Status::Error("ring entry beyond peer table");
    }
    if (!alive_[entry.id]) {
      return Status::Error(PeerContext("dead peer on ring", entry.id));
    }
    if (entry.key_raw != keys_[entry.id].raw) {
      return Status::Error(PeerContext("ring key != table key", entry.id));
    }
    if (on_ring[entry.id]) {
      return Status::Error(PeerContext("peer on ring twice", entry.id));
    }
    on_ring[entry.id] = 1;
    if (ring_.PosOf(entry.id) != pos) {
      return Status::Error(
          PeerContext("ring position does not point back", entry.id));
    }
    if (pos > 0 && !(ring_.at(pos - 1) < entry)) {
      return Status::Error("ring entries out of (key, id) order");
    }
  }
  for (PeerId id = 0; id < n; ++id) {
    if (!alive_[id] && ring_.PosOf(id) != Ring::kNotOnRing) {
      return Status::Error(
          PeerContext("dead peer carries a ring position", id));
    }
  }
  return Status::Ok();
}

size_t Network::PruneDeadLinks(PeerId id) {
  const size_t dropped = dangling_out_[id];
  if (dropped == 0) return 0;
  PeerId* out_row = out_slab_.data() + out_base_[id];
  PeerId* out_end = out_row + out_count_[id];
  PeerId* kept = std::remove_if(out_row, out_end,
                                [&](PeerId t) { return alive_[t] == 0; });
  out_count_[id] = static_cast<uint32_t>(kept - out_row);
  dangling_out_[id] = 0;
  Touch(id);
  return dropped;
}

}  // namespace oscar
