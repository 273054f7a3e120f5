#include "overlay/maintenance.h"

namespace oscar {

Maintainer::Maintainer(OverlayPtr overlay, MaintenanceOptions options)
    : overlay_(std::move(overlay)), options_(options) {}

Result<MaintenanceReport> Maintainer::RunRound(Network* net, Rng* rng) {
  if (overlay_ == nullptr) return Status::Error("maintainer: null overlay");
  if (options_.proactive_fraction < 0.0 ||
      options_.proactive_fraction > 1.0) {
    return Status::Error("maintainer: proactive_fraction out of [0,1]");
  }
  MaintenanceReport report;
  const uint64_t steps_before = overlay_->sampling_steps();

  for (PeerId id : net->AlivePeers()) {
    // Lazy repair: drop links whose target died, top the budget back up.
    report.pruned_links += net->PruneDeadLinks(id);
    if (net->RemainingOutBudget(id) > 0) {
      const Status status = overlay_->BuildLinks(net, id, rng);
      if (!status.ok()) return status;
      ++report.rebuilt_peers;
    }
    // Proactive refresh: a random subset rewires from scratch so stale
    // partitions (computed when N was different) get re-estimated.
    if (rng->NextDouble() < options_.proactive_fraction) {
      net->ClearLongLinks(id);
      const Status status = overlay_->BuildLinks(net, id, rng);
      if (!status.ok()) return status;
      ++report.refreshed_peers;
    }
  }
  report.sampling_steps = overlay_->sampling_steps() - steps_before;
  return report;
}

}  // namespace oscar
