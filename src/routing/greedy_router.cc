#include "routing/greedy_router.h"

#include "routing/route_stepper.h"

namespace oscar {

RouteResult GreedyRouter::Route(NetworkView net, PeerId source,
                                KeyId target) const {
  GreedyStepper stepper;
  stepper.Start(net, source, target);
  // The ring guarantees strict progress, so the only loop bound needed
  // is a generous safety net against substrate bugs.
  const size_t max_steps = 4 * net.alive_count() + 16;
  for (size_t step = 0; step < max_steps && !stepper.done(); ++step) {
    stepper.Step(net);
  }
  if (!stepper.done()) stepper.Abandon(net);
  return stepper.result();
}

}  // namespace oscar
