// Step-wise routing: the greedy and fault-aware-DFS algorithms exposed
// one hop at a time. A stepper owns the in-flight route state (current
// peer, visited set, accumulated cost) so a message-level simulator can
// interleave many concurrent lookups, price every hop individually, and
// inject failures *between* hops (a next-hop peer crashing while the
// message is in flight).
//
// Run drives a stepper to completion under its algorithm's message
// budget, which is written only here: greedy takes at most
// 4 * alive + 16 steps, backtracking at most 8 * alive + 64 messages.
// Route (router.h), the serve route phase and the message engine all
// run lookups through these steppers and budgets; the stepper-vs-Run
// equivalence test guards the drive loop.
//
// Each Step picks the view's backend once and runs one template over
// it (StepOn), so a live Network and a frozen TopologySnapshot share a
// single implementation of every routing decision.

#ifndef OSCAR_ROUTING_ROUTE_STEPPER_H_
#define OSCAR_ROUTING_ROUTE_STEPPER_H_

#include <cstddef>
#include <cstdint>
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
//    liveness changes between steps are observed (identical to Run
//    while `net` is unchanged during a route).
//  - Abandon(net) finishes the route in its current state — the caller's
//    message budget ran out: success iff the route happens to sit on
//    the owner.
//  - Run(net, source, target) routes one whole lookup: Start, Step
//    until done or over the budget, then Abandon. It reuses the
//    stepper's storage and returns result().
//  - result() is the accumulated route result, final once done();
//    current() is the peer holding the query.

/// Greedy routing, one hop per Step: forward to an alive neighbor
/// strictly closer to the target key. Among candidates making
/// near-best progress (within a band of the best distance), the
/// highest-capacity one is chosen, which sheds forwarding load onto
/// peers that declared bigger budgets; under constant caps this is
/// classic closest-first greedy. Dead long links that looked better
/// than the hop taken are charged as probes. Every alive peer keeps
/// alive ring neighbors, so strict progress is always possible and the
/// route ends at the owner.
///
/// A hop reads each neighbor once. The closest-neighbor pass writes
/// every row entry's distance to the target into a buffer the stepper
/// owns and reuses across hops and routes (UINT64_MAX for a dead
/// entry); the capacity-band pass reads that buffer and fetches caps
/// only for entries inside the band, and the dead-probe pass finds the
/// dead entries by their UINT64_MAX. A row whose peer has no dangling
/// out-link reads no liveness at all. That is exact: ring neighbors are
/// always alive, and both backends keep each peer's dangling_out count
/// equal to the dead targets of its out row (Network::CheckInvariants
/// and TopologySnapshot::Validate audit it). Run dispatches on the
/// backend once per route; Step, once per hop.
class GreedyStepper {
 public:
  void Start(NetworkView net, PeerId source, KeyId target);
  RouteStep Step(NetworkView net);
  bool done() const { return done_; }
  void Abandon(NetworkView net);
  /// Runs a whole route; the budget (4 * alive + 16 steps) is only a
  /// safety net against substrate bugs.
  const RouteResult& Run(NetworkView net, PeerId source, KeyId target);
  const RouteResult& result() const { return result_; }
  PeerId current() const { return current_; }

 private:
  // The hop kernel starts on a 64-byte boundary, so its hot loops keep
  // their placement when unrelated code moves: with this kernel's code
  // unchanged, a 16-byte shift cost serve 11% of its throughput. gcc
  // honors the attribute here, on the declaration, and ignores it on
  // the out-of-class template definition;
  // scripts/check_kernel_alignment.sh checks the built oscar_serve.
  template <typename Topo>
  __attribute__((aligned(64))) RouteStep StepOn(const Topo& topo);

  RouteResult result_;
  KeyId target_;
  PeerId current_ = 0;
  bool done_ = true;
  // The current row's distances to the target, in row order; only the
  // first ring_count + out.size() entries belong to the current hop.
  std::vector<uint64_t> distances_;
};

/// A set of peer ids for the per-route visited and probed sets: open
/// addressing with linear probing at load at most 1/2, and no node
/// allocations. clear() empties only the slots in use and keeps the
/// table, so a stepper reused across routes pays O(size) per reset and
/// allocates again only when a route outgrows every earlier one.
class PeerIdSet {
 public:
  bool contains(PeerId id) const {
    if (id == kEmpty) return holds_empty_key_;
    return !slots_.empty() && slots_[SlotFor(id)] == id;
  }
  /// Adds `id`; true when it was not yet a member.
  bool insert(PeerId id);
  void clear();

 private:
  /// Marks a free slot. The one id equal to it is kept in a flag.
  static constexpr PeerId kEmpty = UINT32_MAX;
  /// The slot holding `id`, or the free slot that ends its probe run.
  /// Precondition: the table is nonempty.
  size_t SlotFor(PeerId id) const {
    // Fibonacci hashing: the top bits of the product index the table.
    size_t slot = static_cast<size_t>(
        (uint64_t{id} * 0x9e3779b97f4a7c15ULL) >> shift_);
    const size_t mask = slots_.size() - 1;
    while (slots_[slot] != id && slots_[slot] != kEmpty) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }
  void Rehash(size_t capacity);

  std::vector<PeerId> slots_;   // Power-of-two size; kEmpty when free.
  std::vector<uint32_t> used_;  // Indices of the occupied slots.
  unsigned shift_ = 64;         // 64 - log2(slots_.size()).
  bool holds_empty_key_ = false;
};

/// Fault-aware routing for crashed networks (depth-first greedy), one
/// forward or backtrack move per Step. At each peer, candidates are
/// tried nearest-to-target first; probes to dead neighbors cost a
/// wasted message, visited peers are never re-entered, and a peer out
/// of useful neighbors returns the query (also a wasted message).
/// Alive ring neighbors keep the search space connected, so every
/// lookup eventually succeeds: the paper's "remains navigable" claim,
/// priced in messages. The message engine drives this one.
class BacktrackingStepper {
 public:
  void Start(NetworkView net, PeerId source, KeyId target);
  RouteStep Step(NetworkView net);
  bool done() const { return done_; }
  void Abandon(NetworkView net);
  /// Whether the route has spent its budget of 8 * alive + 64 messages
  /// (hops plus wasted). Read against `net` now, so a caller whose
  /// alive count changes mid-route (the message engine under churn)
  /// sees the current budget.
  bool OverBudget(NetworkView net) const {
    return result_.hops + result_.wasted >= 8 * net.alive_count() + 64;
  }
  /// Runs a whole route: Step while !done() and !OverBudget(net).
  const RouteResult& Run(NetworkView net, PeerId source, KeyId target);
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
  // Pinned to a 64-byte boundary like GreedyStepper's kernel: the
  // message engine's routes run here, and a 16-byte shift of this
  // unchanged code cost sim-steady about 4%.
  template <typename Topo>
  __attribute__((aligned(64))) RouteStep StepOn(const Topo& topo);

  RouteResult result_;
  KeyId target_;
  PeerId source_ = 0;
  bool done_ = true;
  PeerIdSet visited_;
  PeerIdSet probed_dead_;
  std::vector<PeerId> stack_;
};

}  // namespace oscar

#endif  // OSCAR_ROUTING_ROUTE_STEPPER_H_
