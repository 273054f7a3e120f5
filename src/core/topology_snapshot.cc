#include "core/topology_snapshot.h"

#include <algorithm>
#include <atomic>
#include <string>

namespace oscar {
namespace {

uint64_t NextSnapshotToken() {
  static std::atomic<uint64_t> counter{0};
  return ++counter;
}

}  // namespace

TopologySnapshot::TopologySnapshot(const Network& net)
    : keys_(net.keys_),
      caps_(net.caps_),
      alive_(net.alive_),
      dangling_out_(net.dangling_out_),
      ring_(net.ring()),
      token_(NextSnapshotToken()) {
  const size_t n = keys_.size();
  uint64_t total_out = 0, total_in = 0;
  for (PeerId id = 0; id < n; ++id) {
    total_out += net.out_count_[id];
    total_in += net.in_count_[id];
  }
  out_edges_.reserve(total_out);
  in_edges_.reserve(total_in);
  out_offsets_.reserve(n + 1);
  in_offsets_.reserve(n + 1);
  out_offsets_.push_back(0);
  in_offsets_.push_back(0);
  for (PeerId id = 0; id < n; ++id) {
    // Pack each peer's live slab prefix; the unused slab tail (capacity
    // beyond count) is dropped — snapshots are exactly-sized.
    const PeerSpan out = net.OutLinks(id);
    out_edges_.insert(out_edges_.end(), out.begin(), out.end());
    const PeerSpan in = net.InLinks(id);
    in_edges_.insert(in_edges_.end(), in.begin(), in.end());
    out_offsets_.push_back(out_edges_.size());
    in_offsets_.push_back(in_edges_.size());
  }
}

Status TopologySnapshot::Validate() const {
  const size_t n = keys_.size();
  if (caps_.size() != n || alive_.size() != n || dangling_out_.size() != n) {
    return Status::Error("snapshot parallel arrays out of lockstep");
  }
  if (out_offsets_.size() != n + 1 || in_offsets_.size() != n + 1) {
    return Status::Error("CSR offsets not sized to the peer table");
  }
  const std::vector<uint64_t>& out_off = out_offsets_;
  const std::vector<uint64_t>& in_off = in_offsets_;
  if (out_off[0] != 0 || in_off[0] != 0) {
    return Status::Error("CSR offsets do not start at 0");
  }
  if (out_off[n] != out_edges_.size() || in_off[n] != in_edges_.size()) {
    return Status::Error("CSR offsets not closed by the edge totals");
  }
  size_t alive_total = 0;
  for (PeerId id = 0; id < n; ++id) {
    if (alive_[id] != 0 && alive_[id] != 1) {
      return Status::Error("alive flag not 0/1 at peer " + std::to_string(id));
    }
    alive_total += alive_[id];
    if (out_off[id + 1] < out_off[id] || in_off[id + 1] < in_off[id]) {
      return Status::Error("CSR offsets not monotone at peer " +
                           std::to_string(id));
    }
    const uint64_t out_len = out_off[id + 1] - out_off[id];
    const uint64_t in_len = in_off[id + 1] - in_off[id];
    if (out_len > caps_[id].max_out || in_len > caps_[id].max_in) {
      return Status::Error("CSR row exceeds declared cap at peer " +
                           std::to_string(id));
    }
    if (!alive_[id] && (out_len != 0 || in_len != 0)) {
      return Status::Error("dead peer holds CSR rows at peer " +
                           std::to_string(id));
    }
    const PeerSpan out = OutLinks(id);
    uint32_t dangling = 0;
    for (PeerId target : out) {
      if (target >= n) {
        return Status::Error("out-edge beyond peer table at peer " +
                             std::to_string(id));
      }
      dangling += alive_[target] ? 0 : 1;
      if (target == id) {
        return Status::Error("self edge at peer " + std::to_string(id));
      }
      // Dangling edges to dead targets are legal (frozen mid-churn);
      // live ones must be mirrored in the target's in row.
      if (alive_[target]) {
        const PeerSpan in = InLinks(target);
        if (std::count(in.begin(), in.end(), id) != 1) {
          return Status::Error("out-edge not mirrored exactly once, peer " +
                               std::to_string(id));
        }
      }
    }
    if (dangling != dangling_out_[id]) {
      return Status::Error("dangling out-edge count drift at peer " +
                           std::to_string(id));
    }
    const PeerSpan in = InLinks(id);
    for (PeerId holder : in) {
      if (holder >= n || !alive_[holder]) {
        return Status::Error("in-edge from dead holder at peer " +
                             std::to_string(id));
      }
      const PeerSpan holder_out = OutLinks(holder);
      if (std::find(holder_out.begin(), holder_out.end(), id) ==
          holder_out.end()) {
        return Status::Error("in-edge without matching out-edge at peer " +
                             std::to_string(id));
      }
    }
  }
  // The ring and its position index agree with the peer table: exactly
  // the alive peers, sorted, each position pointing back at its entry.
  if (ring_.size() != alive_total) {
    return Status::Error("ring size != alive peer count");
  }
  for (size_t pos = 0; pos < ring_.size(); ++pos) {
    const Ring::Entry& entry = ring_.at(pos);
    if (entry.id >= n || !alive_[entry.id] ||
        entry.key_raw != keys_[entry.id].raw) {
      return Status::Error("ring entry disagrees with peer table");
    }
    if (ring_.PosOf(entry.id) != pos) {
      return Status::Error("ring_pos does not point back at ring entry");
    }
    if (pos > 0 && !(ring_.at(pos - 1) < entry)) {
      return Status::Error("ring entries out of (key, id) order");
    }
  }
  for (PeerId id = 0; id < n; ++id) {
    if (!alive_[id] && ring_.PosOf(id) != Ring::kNotOnRing) {
      return Status::Error("dead peer carries a ring position");
    }
  }
  return Status::Ok();
}

Status TopologySnapshot::CheckRestoreIdentity(const Network& net) const {
  const Network full = Restore();
  const size_t n = full.keys_.size();
  if (net.keys_.size() != n) {
    return Status::Error("restored network has wrong peer count");
  }
  for (PeerId id = 0; id < n; ++id) {
    if (net.keys_[id].raw != full.keys_[id].raw) {
      return Status::Error("restored key diverges at peer " +
                           std::to_string(id));
    }
    if (net.caps_[id].max_in != full.caps_[id].max_in ||
        net.caps_[id].max_out != full.caps_[id].max_out) {
      return Status::Error("restored caps diverge at peer " +
                           std::to_string(id));
    }
    if (net.alive_[id] != full.alive_[id]) {
      return Status::Error("restored liveness diverges at peer " +
                           std::to_string(id));
    }
    if (net.dangling_out_[id] != full.dangling_out_[id]) {
      return Status::Error("restored dangling count diverges at peer " +
                           std::to_string(id));
    }
    // Link order is part of the contract (walk order is physics), so
    // rows must match element-wise, not as sets.
    const PeerSpan a_out = net.OutLinks(id);
    const PeerSpan b_out = full.OutLinks(id);
    if (a_out.size() != b_out.size() ||
        !std::equal(a_out.begin(), a_out.end(), b_out.begin())) {
      return Status::Error("restored out row diverges at peer " +
                           std::to_string(id));
    }
    const PeerSpan a_in = net.InLinks(id);
    const PeerSpan b_in = full.InLinks(id);
    if (a_in.size() != b_in.size() ||
        !std::equal(a_in.begin(), a_in.end(), b_in.begin())) {
      return Status::Error("restored in row diverges at peer " +
                           std::to_string(id));
    }
  }
  // The ring's position index as well as its entries: a delta restore
  // that left a stale position would misroute every step it reads.
  if (!(net.ring_ == full.ring_)) {
    return Status::Error("restored ring diverges from full restore");
  }
  return Status::Ok();
}

Network TopologySnapshot::Restore() const {
  Network net;
  RestoreInto(&net);
  return net;
}

void TopologySnapshot::RestoreInto(Network* net) const {
  const size_t n = size();
  // Repair one peer's row from the flat arrays. Caps are immutable per
  // peer, so an id's slab region is the same in every restore of the
  // same snapshot — a repair is two row copies plus scalar stores.
  const auto repair = [&](PeerId id) {
    net->keys_[id] = keys_[id];
    net->caps_[id] = caps_[id];
    net->alive_[id] = alive_[id];
    net->dangling_out_[id] = dangling_out_[id];
    const PeerSpan out = OutLinks(id);
    std::copy(out.begin(), out.end(),
              net->out_slab_.data() + net->out_base_[id]);
    net->out_count_[id] = static_cast<uint32_t>(out.size());
    const PeerSpan in = InLinks(id);
    std::copy(in.begin(), in.end(), net->in_slab_.data() + net->in_base_[id]);
    net->in_count_[id] = static_cast<uint32_t>(in.size());
  };
  const bool delta = token_ != 0 && net->restore_token_ == token_ &&
                     net->journal_active_ && net->keys_.size() >= n &&
                     net->journal_.size() < n;
  if (delta) {
    // Drop peers joined since the last restore: truncate every parallel
    // array — and both slabs — back to the snapshot's extent. Bases of
    // surviving peers are unchanged (caps are join-time constants).
    net->keys_.resize(n);
    net->caps_.resize(n);
    net->alive_.resize(n);
    net->dangling_out_.resize(n);
    net->out_base_.resize(n + 1);
    net->in_base_.resize(n + 1);
    net->out_count_.resize(n);
    net->in_count_.resize(n);
    net->out_slab_.resize(net->out_base_[n]);
    net->in_slab_.resize(net->in_base_[n]);
    std::sort(net->journal_.begin(), net->journal_.end());
    net->journal_.erase(
        std::unique(net->journal_.begin(), net->journal_.end()),
        net->journal_.end());
    for (PeerId id : net->journal_) {
      if (id < n) repair(id);  // >= n: joined peers, already dropped.
    }
  } else {
    // Full rebuild: bulk array copies (reusing `net`'s allocations when
    // they are large enough) plus a prefix-sum pass to lay out slabs.
    net->keys_ = keys_;
    net->caps_ = caps_;
    net->alive_ = alive_;
    net->dangling_out_ = dangling_out_;
    net->out_base_.resize(n + 1);
    net->in_base_.resize(n + 1);
    net->out_base_[0] = 0;
    net->in_base_[0] = 0;
    for (size_t i = 0; i < n; ++i) {
      net->out_base_[i + 1] = net->out_base_[i] + caps_[i].max_out;
      net->in_base_[i + 1] = net->in_base_[i] + caps_[i].max_in;
    }
    net->out_count_.resize(n);
    net->in_count_.resize(n);
    net->out_slab_.resize(net->out_base_[n]);
    net->in_slab_.resize(net->in_base_[n]);
    for (PeerId id = 0; id < n; ++id) repair(id);
  }
  net->ring_ = ring_;
  net->restore_token_ = token_;
  net->journal_active_ = true;
  net->journal_.clear();
}

}  // namespace oscar
