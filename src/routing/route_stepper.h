// Step-wise routing: the greedy and fault-aware-DFS algorithms exposed
// one hop at a time. A stepper owns the in-flight route state (current
// peer, visited set, accumulated cost) so a message-level simulator can
// interleave many concurrent lookups, price every hop individually, and
// inject failures *between* hops (a next-hop peer crashing while the
// message is in flight).
//
// GreedyRouter::Route and BacktrackingRouter::Route are implemented by
// driving these steppers to completion with the routers' historical
// message budgets, so whole-path results are unchanged by construction;
// the stepper-vs-route equivalence test guards the property.
//
// Each Step picks the view's backend once and runs one template over
// it (StepOn), so a live Network and a frozen TopologySnapshot share a
// single implementation of every routing decision.

#ifndef OSCAR_ROUTING_ROUTE_STEPPER_H_
#define OSCAR_ROUTING_ROUTE_STEPPER_H_

#include <unordered_set>
#include <vector>

#include "routing/router.h"

namespace oscar {

enum class StepKind {
  kArrived,    // Current peer owns the target: lookup succeeded.
  kForward,    // Moved one hop to `to` (one forwarded message).
  kBacktrack,  // Returned the query to `to`, the previous hop (wasted).
  kStuck,      // No useful neighbor and nowhere to return: failed.
};

/// What happened during one Step call.
struct RouteStep {
  StepKind kind = StepKind::kStuck;
  PeerId from = 0;
  PeerId to = 0;             // Destination of kForward / kBacktrack.
  uint32_t dead_probes = 0;  // Dead neighbors first-probed in this step.
};

// GreedyStepper and BacktrackingStepper expose the same step interface:
//  - Start(net, source, target) resets to a fresh route. The stepper may
//    be done() immediately (dead source, empty ring): a failure.
//  - Step(net) advances the route by one decision. Precondition:
//    !done(). Every call re-checks whether the current peer owns the
//    target against `net` — in O(1), from the peer's ring position — so
//    liveness changes between steps are observed (identical to the
//    whole-path routers while `net` is unchanged during a route).
//  - Abandon(net) finishes the route in its current state — the caller's
//    message budget ran out. Mirrors the whole-path routers'
//    loop-exhaustion path: success iff the route happens to sit on the
//    owner.
//  - result() is the accumulated route result, final once done();
//    current() is the peer holding the query.

/// The GreedyRouter algorithm, one hop per Step (capacity-aware band
/// relaxation and lazy dead-probe charging included).
class GreedyStepper {
 public:
  void Start(NetworkView net, PeerId source, KeyId target);
  RouteStep Step(NetworkView net);
  bool done() const { return done_; }
  void Abandon(NetworkView net);
  const RouteResult& result() const { return result_; }
  PeerId current() const { return current_; }

 private:
  template <typename Topo>
  RouteStep StepOn(const Topo& topo);

  RouteResult result_;
  KeyId target_;
  PeerId current_ = 0;
  bool done_ = true;
};

/// The BacktrackingRouter algorithm (fault-aware depth-first greedy),
/// one forward or backtrack move per Step. The message engine drives
/// this one.
class BacktrackingStepper {
 public:
  void Start(NetworkView net, PeerId source, KeyId target);
  RouteStep Step(NetworkView net);
  bool done() const { return done_; }
  void Abandon(NetworkView net);
  /// Reverts the route one level after a failed delivery: the message
  /// to the current position never arrived (its holder crashed). The
  /// failed hop is refunded (when it was a forward) and recharged as
  /// one wasted message; routing resumes one level up. Only meaningful
  /// when the failed peer is now dead — a live peer would be re-chosen
  /// by a greedy re-step. Returns false (and does nothing) when the
  /// route is already at its origin with nothing to revert.
  bool FailDelivery(NetworkView net);
  const RouteResult& result() const { return result_; }
  PeerId current() const {
    return stack_.empty() ? source_ : stack_.back();
  }

 private:
  template <typename Topo>
  RouteStep StepOn(const Topo& topo);

  RouteResult result_;
  KeyId target_;
  PeerId source_ = 0;
  bool done_ = true;
  std::unordered_set<PeerId> visited_;
  std::unordered_set<PeerId> probed_dead_;
  std::vector<PeerId> stack_;
};

}  // namespace oscar

#endif  // OSCAR_ROUTING_ROUTE_STEPPER_H_
