#include "routing/route_stepper.h"

#include <utility>

namespace oscar {

namespace {

/// Rewinds `result` to a fresh route at `source`, keeping the path's
/// storage so a reused stepper does not reallocate per lookup.
void ResetResult(RouteResult* result, PeerId source) {
  result->success = false;
  result->hops = 0;
  result->wasted = 0;
  result->terminal = source;
  result->path.clear();
  result->path.push_back(source);
}

/// Whether the peer at ring position `pos` owns `target` — exactly
/// `OwnerOf(target) == peer`, in O(1). A dead peer (off the ring) owns
/// nothing.
template <typename Topo>
bool OwnsTarget(const Topo& topo, uint32_t pos, KeyId target) {
  return pos != Ring::kNotOnRing &&
         topo.ring().OwnsAt(pos, target);
}

}  // namespace

// ---- PeerIdSet -----------------------------------------------------------

bool PeerIdSet::insert(PeerId id) {
  if (id == kEmpty) {
    const bool added = !holds_empty_key_;
    holds_empty_key_ = true;
    return added;
  }
  // Grow before the insert could push the load past 1/2.
  if (2 * (used_.size() + 1) > slots_.size()) {
    Rehash(slots_.empty() ? 16 : 2 * slots_.size());
  }
  const size_t slot = SlotFor(id);
  if (slots_[slot] == id) return false;
  slots_[slot] = id;
  used_.push_back(static_cast<uint32_t>(slot));
  return true;
}

void PeerIdSet::clear() {
  for (const uint32_t slot : used_) slots_[slot] = kEmpty;
  used_.clear();
  holds_empty_key_ = false;
}

void PeerIdSet::Rehash(size_t capacity) {
  const std::vector<PeerId> old =
      std::exchange(slots_, std::vector<PeerId>(capacity, kEmpty));
  shift_ = 64;
  for (size_t c = capacity; c > 1; c >>= 1) --shift_;
  for (uint32_t& slot : used_) {
    const PeerId id = old[slot];
    slot = static_cast<uint32_t>(SlotFor(id));
    slots_[slot] = id;
  }
}

// ---- GreedyStepper -------------------------------------------------------

void GreedyStepper::Start(NetworkView net, PeerId source, KeyId target) {
  ResetResult(&result_, source);
  target_ = target;
  current_ = source;
  done_ = net.alive_count() == 0 || !net.alive(source);
}

RouteStep GreedyStepper::Step(NetworkView net) {
  return net.Visit([this](const auto& topo) { return StepOn(topo); });
}

template <typename Topo>
RouteStep GreedyStepper::StepOn(const Topo& topo) {
  RouteStep step;
  step.from = current_;
  const uint32_t pos = topo.ring().PosOf(current_);
  if (OwnsTarget(topo, pos, target_)) {
    result_.success = true;
    result_.terminal = current_;
    done_ = true;
    step.kind = StepKind::kArrived;
    return step;
  }
  const NeighborRow row =
      NeighborRowOf(topo, current_, pos, /*with_in_links=*/false);
  const uint64_t here = RingDistance(topo.key(current_), target_);
  const size_t entries = row.ring_count + row.out.size();
  if (closer_.size() < entries) closer_.resize(entries);
  Candidate* const closer = closer_.data();
  // Pass 1, the only pass that reads a neighbor's key: keep the first
  // strictly closest entry, and list the entries strictly closer than
  // `here` in row order, all by conditional selects — every entry is
  // written to the list, and the count advances only past a closer
  // one. A dead entry scores UINT64_MAX: never closer than `here`, so
  // never listed; its probe is charged lazily below. Only a row with a
  // dangling out-link reads liveness.
  PeerId best = current_;
  uint64_t best_distance = here;
  size_t closer_count = 0;
  const auto closest_pass = [&](auto distance) {
    row.ForEach([&](PeerId candidate) {
      const uint64_t d = distance(candidate);
      closer[closer_count] = {d, candidate};
      closer_count += d < here;
      const bool closest = d < best_distance;
      best = closest ? candidate : best;
      best_distance = closest ? d : best_distance;
    });
  };
  const bool has_dead = topo.dangling_out(current_) != 0;
  if (has_dead) {
    closest_pass([&](PeerId candidate) {
      return topo.alive(candidate)
                 ? RingDistance(topo.key(candidate), target_)
                 : UINT64_MAX;
    });
  } else {
    closest_pass([&](PeerId candidate) {
      return RingDistance(topo.key(candidate), target_);
    });
  }
  if (closer_count == 0) {  // No strict progress: substrate violation.
    result_.terminal = current_;
    result_.success = false;
    done_ = true;
    step.kind = StepKind::kStuck;
    return step;
  }
  // Pass 2, capacity-aware relaxation over the strictly-closer list:
  // any entry within 50% of the best distance makes comparable
  // progress; prefer the one with the largest declared in-budget (the
  // first one in row order wins ties).
  const uint64_t band =
      best_distance + best_distance / 2 < best_distance
          ? UINT64_MAX
          : best_distance + best_distance / 2;
  uint32_t best_in = topo.caps(best).max_in;
  for (size_t i = 0; i < closer_count; ++i) {
    if (closer[i].distance > band) continue;
    const uint32_t in = topo.caps(closer[i].id).max_in;
    const bool roomier = in > best_in;
    best = roomier ? closer[i].id : best;
    best_in = roomier ? in : best_in;
  }
  // Charge probes for dead long links that looked strictly better than
  // the hop we ended up taking (the peer would have tried them first).
  if (has_dead) {
    best_distance = RingDistance(topo.key(best), target_);
    row.ForEach([&](PeerId candidate) {
      if (!topo.alive(candidate) &&
          RingDistance(topo.key(candidate), target_) < best_distance) {
        ++result_.wasted;
        ++step.dead_probes;
      }
    });
  }
  current_ = best;
  ++result_.hops;
  result_.path.push_back(current_);
  result_.terminal = current_;
  step.kind = StepKind::kForward;
  step.to = best;
  return step;
}

void GreedyStepper::Abandon(NetworkView net) {
  const auto owner = net.OwnerOf(target_);
  result_.terminal = current_;
  result_.success = owner.has_value() && current_ == *owner;
  done_ = true;
}

// ---- BacktrackingStepper -------------------------------------------------

void BacktrackingStepper::Start(NetworkView net, PeerId source,
                                KeyId target) {
  ResetResult(&result_, source);
  target_ = target;
  source_ = source;
  visited_.clear();
  visited_.insert(source);
  probed_dead_.clear();
  stack_.clear();
  stack_.push_back(source);
  done_ = net.alive_count() == 0 || !net.alive(source);
}

RouteStep BacktrackingStepper::Step(NetworkView net) {
  return net.Visit([this](const auto& topo) { return StepOn(topo); });
}

template <typename Topo>
RouteStep BacktrackingStepper::StepOn(const Topo& topo) {
  RouteStep step;
  const PeerId current = stack_.back();
  step.from = current;
  const uint32_t pos = topo.ring().PosOf(current);
  if (OwnsTarget(topo, pos, target_)) {
    result_.success = true;
    result_.terminal = current;
    done_ = true;
    step.kind = StepKind::kArrived;
    return step;
  }
  const NeighborRow row =
      NeighborRowOf(topo, current, pos, /*with_in_links=*/false);
  // The next hop is the smallest (distance, id) among alive, unvisited
  // neighbors. RingDistance never exceeds 2^63, so UINT64_MAX marks
  // "none found". The smallest (distance, id) over the whole row is
  // taken first, by conditional selects on the pair packed into one
  // integer, distance above id; a dead entry scores UINT64_MAX. Only a
  // row with a dangling out-link reads liveness: ring neighbors are
  // always alive, and a dead current peer's row is empty. When that
  // entry is unvisited it is exactly the hop the scan below would pick,
  // since dropping visited entries cannot make a smaller pair. Only when
  // it is visited (mostly after a backtrack or a failed delivery) does
  // the row fall back to the scan.
  const bool has_dead = topo.dangling_out(current) != 0;
  using Ranked = unsigned __int128;
  Ranked smallest = ~Ranked{0};  // Above every (distance, id) pair.
  const auto argmin_pass = [&](auto distance) {
    row.ForEach([&](PeerId candidate) {
      const Ranked ranked = Ranked{distance(candidate)} << 32 | candidate;
      smallest = ranked < smallest ? ranked : smallest;
    });
  };
  if (has_dead) {
    argmin_pass([&](PeerId candidate) {
      return topo.alive(candidate)
                 ? RingDistance(topo.key(candidate), target_)
                 : UINT64_MAX;
    });
  } else {
    argmin_pass([&](PeerId candidate) {
      return RingDistance(topo.key(candidate), target_);
    });
  }
  // A row of dead entries only, or an empty one, leaves UINT64_MAX.
  uint64_t best_distance = static_cast<uint64_t>(smallest >> 32);
  PeerId next = static_cast<PeerId>(smallest);
  // The fallback scan skips dead and visited entries, and consults the
  // visited set only for a candidate that would beat the best so far.
  if (best_distance != UINT64_MAX && visited_.contains(next)) {
    best_distance = UINT64_MAX;
    next = current;
    row.ForEach([&](PeerId candidate) {
      if (!topo.alive(candidate)) return;
      const uint64_t d = RingDistance(topo.key(candidate), target_);
      if (std::make_pair(d, candidate) >=
              std::make_pair(best_distance, next) ||
          visited_.contains(candidate)) {
        return;
      }
      best_distance = d;
      next = candidate;
    });
  }
  const bool found = best_distance != UINT64_MAX;
  if (has_dead) {
    // A scan in (distance, id) order probes every dead, unvisited
    // neighbor ranked before the chosen hop (all of them on a dead
    // end). The first probe of a dead neighbor costs a message;
    // remember it so revisits after backtracking don't double-charge.
    row.ForEach([&](PeerId candidate) {
      if (topo.alive(candidate)) return;
      const uint64_t d = RingDistance(topo.key(candidate), target_);
      if ((found && std::make_pair(d, candidate) >
                        std::make_pair(best_distance, next)) ||
          visited_.contains(candidate)) {
        return;
      }
      if (probed_dead_.insert(candidate)) {
        ++result_.wasted;
        ++step.dead_probes;
      }
    });
  }
  if (found) {
    visited_.insert(next);
    stack_.push_back(next);
    ++result_.hops;
    result_.path.push_back(next);
    result_.terminal = next;
    step.kind = StepKind::kForward;
    step.to = next;
    return step;
  }
  stack_.pop_back();  // Dead end: return the query to the previous hop.
  ++result_.wasted;
  if (stack_.empty()) {
    result_.terminal = source_;
    result_.success = false;
    done_ = true;
    step.kind = StepKind::kStuck;
    return step;
  }
  result_.terminal = stack_.back();
  step.kind = StepKind::kBacktrack;
  step.to = stack_.back();
  return step;
}

void BacktrackingStepper::Abandon(NetworkView net) {
  const auto owner = net.OwnerOf(target_);
  const PeerId terminal = stack_.empty() ? source_ : stack_.back();
  result_.terminal = terminal;
  result_.success = !stack_.empty() && owner.has_value() &&
                    stack_.back() == *owner;
  done_ = true;
}

bool BacktrackingStepper::FailDelivery(NetworkView net) {
  (void)net;
  if (done_ || stack_.size() < 2) return false;
  const PeerId failed = stack_.back();
  stack_.pop_back();
  ++result_.wasted;  // The undelivered transmission is a timed-out message.
  if (!result_.path.empty() && result_.path.back() == failed) {
    // The failed transmission was the forward that pushed `failed`: the
    // hop never completed, so refund it (the wasted charge above keeps
    // the total cost honest). When `failed` is an older peer reached by
    // backtracking, its historical hop stands and only the unwind
    // message is charged.
    result_.path.pop_back();
    --result_.hops;
  }
  // The peer stays visited (it already swallowed a message once) and is
  // marked probed so a later scan of the same stale link is free.
  probed_dead_.insert(failed);
  result_.terminal = stack_.back();
  return true;
}

// ---- Whole routes --------------------------------------------------------

const RouteResult& GreedyStepper::Run(NetworkView net, PeerId source,
                                      KeyId target) {
  Start(net, source, target);
  const size_t max_steps = 4 * net.alive_count() + 16;
  // One backend dispatch per route, not per hop.
  net.Visit([&](const auto& topo) {
    for (size_t step = 0; step < max_steps && !done_; ++step) StepOn(topo);
  });
  if (!done_) Abandon(net);
  return result_;
}

const RouteResult& BacktrackingStepper::Run(NetworkView net, PeerId source,
                                            KeyId target) {
  Start(net, source, target);
  while (!done_ && !OverBudget(net)) Step(net);
  if (!done_) Abandon(net);
  return result_;
}

RouteResult Route(Routing routing, NetworkView net, PeerId source,
                  KeyId target) {
  if (routing == Routing::kGreedy) {
    GreedyStepper stepper;
    return stepper.Run(net, source, target);
  }
  BacktrackingStepper stepper;
  return stepper.Run(net, source, target);
}

}  // namespace oscar
