#include "routing/route_stepper.h"

#include <algorithm>

#include "common/string_util.h"

namespace oscar {

// ---- GreedyStepper -------------------------------------------------------

void GreedyStepper::Start(NetworkView net, PeerId source, KeyId target) {
  result_ = RouteResult{};
  result_.terminal = source;
  result_.path.push_back(source);
  target_ = target;
  current_ = source;
  done_ = false;
  const auto owner = net.OwnerOf(target);
  if (!owner.has_value() || !net.alive(source)) done_ = true;
}

RouteStep GreedyStepper::Step(NetworkView net) {
  return net.Visit([this](const auto& topo) { return StepOn(topo); });
}

template <typename Topo>
RouteStep GreedyStepper::StepOn(const Topo& topo) {
  RouteStep step;
  step.from = current_;
  const auto owner = topo.OwnerOf(target_);
  if (owner.has_value() && current_ == *owner) {
    result_.success = true;
    result_.terminal = current_;
    done_ = true;
    step.kind = StepKind::kArrived;
    return step;
  }
  const NeighborRow row =
      NeighborRowOf(topo, current_, /*with_in_links=*/false);
  const uint64_t here = RingDistance(topo.key(current_), target_);
  bool moved = false;
  PeerId best = current_;
  uint64_t best_distance = here;
  row.ForEach([&](PeerId candidate) {
    if (!topo.alive(candidate)) return;  // Dead probes charged lazily below.
    const uint64_t d = RingDistance(topo.key(candidate), target_);
    if (d < best_distance) {
      best = candidate;
      best_distance = d;
      moved = true;
    }
  });
  if (!moved) {  // No strict progress: substrate violation.
    result_.terminal = current_;
    result_.success = owner.has_value() && current_ == *owner;
    done_ = true;
    step.kind = StepKind::kStuck;
    return step;
  }
  // Capacity-aware relaxation: any strictly-closer candidate within
  // 50% of the best distance makes comparable progress; prefer the
  // one with the largest declared in-budget.
  const uint64_t band =
      best_distance + best_distance / 2 < best_distance
          ? UINT64_MAX
          : best_distance + best_distance / 2;
  row.ForEach([&](PeerId candidate) {
    if (!topo.alive(candidate) || candidate == best) return;
    const uint64_t d = RingDistance(topo.key(candidate), target_);
    if (d < here && d <= band &&
        topo.caps(candidate).max_in > topo.caps(best).max_in) {
      best = candidate;
    }
  });
  best_distance = RingDistance(topo.key(best), target_);
  // Charge probes for dead long links that looked strictly better than
  // the hop we ended up taking (the peer would have tried them first).
  row.ForEach([&](PeerId candidate) {
    if (!topo.alive(candidate) &&
        RingDistance(topo.key(candidate), target_) < best_distance) {
      ++result_.wasted;
      ++step.dead_probes;
    }
  });
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

bool GreedyStepper::FailDelivery(NetworkView net) {
  (void)net;
  if (done_ || result_.path.size() < 2) return false;
  result_.path.pop_back();
  --result_.hops;
  ++result_.wasted;  // The undelivered message is a timed-out probe.
  current_ = result_.path.back();
  result_.terminal = current_;
  return true;
}

// ---- BacktrackingStepper -------------------------------------------------

void BacktrackingStepper::Start(NetworkView net, PeerId source,
                                KeyId target) {
  result_ = RouteResult{};
  result_.terminal = source;
  result_.path.push_back(source);
  target_ = target;
  source_ = source;
  done_ = false;
  visited_ = {source};
  probed_dead_.clear();
  stack_ = {source};
  const auto owner = net.OwnerOf(target);
  if (!owner.has_value() || !net.alive(source)) done_ = true;
}

RouteStep BacktrackingStepper::Step(NetworkView net) {
  return net.Visit([this](const auto& topo) { return StepOn(topo); });
}

template <typename Topo>
RouteStep BacktrackingStepper::StepOn(const Topo& topo) {
  RouteStep step;
  const PeerId current = stack_.back();
  step.from = current;
  const auto owner = topo.OwnerOf(target_);
  if (owner.has_value() && current == *owner) {
    result_.success = true;
    result_.terminal = current;
    done_ = true;
    step.kind = StepKind::kArrived;
    return step;
  }
  ordered_.clear();
  const NeighborRow row =
      NeighborRowOf(topo, current, /*with_in_links=*/false);
  row.ForEach([&](PeerId candidate) {
    ordered_.emplace_back(RingDistance(topo.key(candidate), target_),
                          candidate);
  });
  std::sort(ordered_.begin(), ordered_.end());

  PeerId next = current;
  bool found = false;
  for (const auto& [distance, candidate] : ordered_) {
    (void)distance;
    if (visited_.count(candidate) != 0) continue;
    if (!topo.alive(candidate)) {
      // First probe of a dead neighbor costs a message; remember it so
      // revisits after backtracking don't double-charge.
      if (probed_dead_.insert(candidate).second) {
        ++result_.wasted;
        ++step.dead_probes;
      }
      continue;
    }
    next = candidate;
    found = true;
    break;
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

Result<RouteStepperPtr> MakeRouteStepper(const std::string& name) {
  if (name == "greedy") {
    return RouteStepperPtr(std::make_unique<GreedyStepper>());
  }
  if (name == "backtracking") {
    return RouteStepperPtr(std::make_unique<BacktrackingStepper>());
  }
  return Status::Error(StrCat("unknown route stepper: '", name,
                              "' (expected greedy|backtracking)"));
}

}  // namespace oscar
