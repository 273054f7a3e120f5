// Whole-route results and the one entry point that runs a lookup to
// completion. A route targets a key; it succeeds when it reaches the
// alive peer that owns the key. Probes to crashed neighbors and
// backtracking moves are charged as `wasted` traffic so the churn
// figures can report cost including wasted messages.
//
// Route picks the algorithm and runs its stepper (route_stepper.h)
// under that algorithm's message budget. Routes read the topology
// through NetworkView, so the same algorithm runs against a live
// Network or a frozen TopologySnapshot.

#ifndef OSCAR_ROUTING_ROUTER_H_
#define OSCAR_ROUTING_ROUTER_H_

#include <cstdint>
#include <vector>

#include "core/network_view.h"

namespace oscar {

struct RouteResult {
  bool success = false;
  uint32_t hops = 0;    // Forwarding steps actually taken.
  uint32_t wasted = 0;  // Dead probes + backtracking moves.
  PeerId terminal = 0;  // Peer where the route ended.
  std::vector<PeerId> path;  // Visited peers, source first.

  /// Total message cost, the quantity the paper's figures plot.
  double Cost() const { return static_cast<double>(hops) + wasted; }
};

/// The two routing algorithms: capacity-aware greedy for intact rings,
/// fault-aware depth-first greedy (backtracking) for crashed ones.
enum class Routing { kGreedy, kBacktracking };

/// Routes one lookup from `source` to the owner of `target` with a
/// fresh stepper of the chosen algorithm (GreedyStepper::Run or
/// BacktrackingStepper::Run).
RouteResult Route(Routing routing, NetworkView net, PeerId source,
                  KeyId target);

}  // namespace oscar

#endif  // OSCAR_ROUTING_ROUTER_H_
