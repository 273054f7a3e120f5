// Amortized repair under continuous churn (extension X8). The paper
// rewires everyone periodically and calls churn handling orthogonal; a
// deployment repairs lazily (prune dead links, top the budget back up)
// plus an optional proactive fraction of full rewires per round.

#ifndef OSCAR_OVERLAY_MAINTENANCE_H_
#define OSCAR_OVERLAY_MAINTENANCE_H_

#include "churn/churn.h"
#include "overlay/overlay.h"

namespace oscar {

struct MaintenanceOptions {
  /// Fraction of alive peers fully rewired (partitions recomputed from
  /// scratch) each round, on top of lazy dead-link repair.
  double proactive_fraction = 0.0;
};

struct MaintenanceReport {
  uint64_t sampling_steps = 0;  // Sampling bandwidth spent this round.
  size_t pruned_links = 0;      // Dead links dropped by lazy repair.
  size_t rebuilt_peers = 0;     // Peers that rebuilt at least one link.
  size_t refreshed_peers = 0;   // Peers proactively rewired.
};

class Maintainer {
 public:
  Maintainer(OverlayPtr overlay, MaintenanceOptions options);

  /// One maintenance round over all alive peers.
  Result<MaintenanceReport> RunRound(Network* net, Rng* rng);

 private:
  OverlayPtr overlay_;
  MaintenanceOptions options_;
};

}  // namespace oscar

#endif  // OSCAR_OVERLAY_MAINTENANCE_H_
