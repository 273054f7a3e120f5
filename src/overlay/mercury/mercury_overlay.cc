#include "overlay/mercury/mercury_overlay.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace oscar {
namespace {

/// The one harmonic draw loop of BuildLinks and PlanFrom: probes the
/// owner of a key at harmonic key-space distance from `own_key` and
/// offers it to `accept`, until `target` owners were accepted or
/// 8 * target + 8 draws were spent. `n` is the alive peer count.
template <typename Accept>
void DrawHarmonic(const Ring& ring, size_t n, KeyId own_key, size_t target,
                  Rng* rng, Accept accept) {
  const double log_n = std::log(static_cast<double>(n));
  const size_t max_attempts = 8 * target + 8;
  size_t filled = 0;
  for (size_t attempt = 0; filled < target && attempt < max_attempts;
       ++attempt) {
    // Harmonic over key-space distance [1/n, 1): d = e^{(U-1) ln n}.
    const double distance = std::exp((rng->NextDouble() - 1.0) * log_n);
    const auto owner = ring.SuccessorOfKey(own_key.OffsetBy(distance));
    if (!owner.has_value()) break;
    if (accept(*owner)) ++filled;
  }
}

}  // namespace

Status MercuryOverlay::BuildLinks(Network* net, PeerId id, Rng* rng) {
  const size_t n = net->alive_count();
  if (n < 3 || !net->alive(id)) return Status::Ok();
  DrawHarmonic(net->ring(), n, net->key(id), net->RemainingOutBudget(id), rng,
               [&](PeerId owner) { return net->AddLongLink(id, owner); });
  return Status::Ok();
}

PeerLinkPlan MercuryOverlay::PlanFrom(NetworkView net, KeyId own_key,
                                      uint32_t budget,
                                      std::optional<PeerId> self, Rng* rng) {
  PeerLinkPlan plan;
  plan.budget = budget;
  const size_t n = net.alive_count();
  if (budget == 0 || n < 3) return plan;
  // BuildLinks' draws, emitting candidates instead of links.
  DrawHarmonic(net.ring(), n, own_key,
               static_cast<size_t>(budget) + kPlanBackupSlots, rng,
               [&](PeerId owner) {
                 if (self.has_value() && owner == *self) return false;
                 const bool seen =
                     std::find_if(plan.candidates.begin(),
                                  plan.candidates.end(),
                                  [&](const LinkCandidate& c) {
                                    return c.primary == owner;
                                  }) != plan.candidates.end();
                 if (seen) return false;
                 plan.candidates.push_back(LinkCandidate{owner, owner});
                 return true;
               });
  return plan;
}

PeerLinkPlan MercuryOverlay::PlanLinks(NetworkView net, PeerId id,
                                       Rng* rng) const {
  if (!net.alive(id)) return PeerLinkPlan{};
  // The rewire clears every long link before plans apply: full out-cap.
  return PlanFrom(net, net.key(id), net.caps(id).max_out, id, rng);
}

PeerLinkPlan MercuryOverlay::PlanJoinLinks(NetworkView net, KeyId key,
                                           DegreeCaps caps,
                                           Rng* rng) const {
  // The joiner is not in `net`, so no self to exclude — a probe can
  // never resolve to it.
  return PlanFrom(net, key, caps.max_out, std::nullopt, rng);
}

}  // namespace oscar
