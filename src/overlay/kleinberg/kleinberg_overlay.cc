#include "overlay/kleinberg/kleinberg_overlay.h"

#include <cmath>

namespace oscar {

Status KleinbergOverlay::BuildLinks(Network* net, PeerId id, Rng* rng) {
  const size_t n = net->alive_count();
  if (n < 3 || !net->alive(id)) return Status::Ok();
  const uint32_t pos = net->ring().PosOf(id);
  if (pos == Ring::kNotOnRing) return Status::Error("peer missing from ring");

  const double log_span = std::log(static_cast<double>(n - 1));
  uint32_t budget = net->RemainingOutBudget(id);
  const uint32_t max_attempts = 8 * budget + 8;
  for (uint32_t attempt = 0; budget > 0 && attempt < max_attempts;
       ++attempt) {
    // Harmonic rank draw over [1, n-1]: r = exp(U * ln(n-1)).
    const size_t rank = std::min<size_t>(
        n - 1, std::max<size_t>(
                   1, static_cast<size_t>(
                          std::exp(rng->NextDouble() * log_span))));
    const PeerId target = net->ring().at((pos + rank) % n).id;
    if (net->AddLongLink(id, target)) --budget;
  }
  return Status::Ok();
}

}  // namespace oscar
