#include "routing/backtracking_router.h"

#include "routing/route_stepper.h"

namespace oscar {

RouteResult BacktrackingRouter::Route(NetworkView net, PeerId source,
                                      KeyId target) const {
  BacktrackingStepper stepper;
  stepper.Start(net, source, target);
  const size_t max_messages = 8 * net.alive_count() + 64;
  while (!stepper.done() &&
         stepper.result().hops + stepper.result().wasted < max_messages) {
    stepper.Step(net);
  }
  if (!stepper.done()) stepper.Abandon(net);
  return stepper.result();
}

}  // namespace oscar
