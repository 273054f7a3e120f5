#include "overlay/mercury/mercury_overlay.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace oscar {

Status MercuryOverlay::BuildLinks(Network* net, PeerId id, Rng* rng) {
  const size_t n = net->alive_count();
  if (n < 3 || !net->alive(id)) return Status::Ok();
  const KeyId own_key = net->key(id);
  const double log_n = std::log(static_cast<double>(n));

  uint32_t budget = net->RemainingOutBudget(id);
  const uint32_t max_attempts = 8 * budget + 8;
  for (uint32_t attempt = 0; budget > 0 && attempt < max_attempts;
       ++attempt) {
    // Harmonic over key-space distance [1/n, 1): d = e^{(U-1) ln n}.
    const double distance = std::exp((rng->NextDouble() - 1.0) * log_n);
    const KeyId probe = own_key.OffsetBy(distance);
    const auto target = net->ring().SuccessorOfKey(probe);
    if (!target.has_value()) break;
    if (net->AddLongLink(id, *target)) --budget;
  }
  return Status::Ok();
}

PeerLinkPlan MercuryOverlay::PlanFrom(NetworkView net, KeyId own_key,
                                      uint32_t budget,
                                      std::optional<PeerId> self, Rng* rng) {
  PeerLinkPlan plan;
  plan.budget = budget;
  const size_t n = net.alive_count();
  if (budget == 0 || n < 3) return plan;
  const double log_n = std::log(static_cast<double>(n));
  const size_t slots = static_cast<size_t>(budget) + kPlanBackupSlots;
  const size_t max_attempts = 8 * slots + 8;
  for (size_t attempt = 0;
       plan.candidates.size() < slots && attempt < max_attempts;
       ++attempt) {
    // Harmonic over key-space distance [1/n, 1): d = e^{(U-1) ln n} —
    // exactly BuildLinks' draw, emitting candidates instead of links.
    const double distance = std::exp((rng->NextDouble() - 1.0) * log_n);
    const KeyId probe = own_key.OffsetBy(distance);
    const auto target = net.ring().SuccessorOfKey(probe);
    if (!target.has_value()) break;
    if (self.has_value() && *target == *self) continue;
    const bool seen =
        std::find_if(plan.candidates.begin(), plan.candidates.end(),
                     [&](const LinkCandidate& c) {
                       return c.primary == *target;
                     }) != plan.candidates.end();
    if (seen) continue;
    plan.candidates.push_back(LinkCandidate{*target, *target});
  }
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
