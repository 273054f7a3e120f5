#include "sampling/size_estimator.h"

#include <algorithm>

#include "common/string_util.h"

namespace oscar {
namespace {

/// Summed clockwise span of the `window` successor gaps after `origin`:
/// one ring-position lookup, then one modular increment per gap. 0 when
/// the origin is dead or the ring has fewer than two peers.
template <typename Topo>
uint64_t GapSpan(const Topo& topo, PeerId origin, uint32_t window) {
  const Ring& ring = topo.ring();
  const size_t n = ring.size();
  const uint32_t start = topo.ring().PosOf(origin);
  if (n < 2 || start == Ring::kNotOnRing) return 0;
  size_t pos = start;
  uint64_t span = 0;
  for (uint32_t i = 0; i < window; ++i) {
    const size_t next = (pos + 1) % n;
    span += ClockwiseDistance(KeyId::FromRaw(ring.at(pos).key_raw),
                              KeyId::FromRaw(ring.at(next).key_raw));
    pos = next;
  }
  return span;
}

}  // namespace

double OracleSizeEstimator::Estimate(NetworkView net, PeerId origin,
                                     Rng* rng) const {
  (void)origin;
  (void)rng;
  return std::max<double>(1.0, static_cast<double>(net.alive_count()));
}

double GapSizeEstimator::Estimate(NetworkView net, PeerId origin,
                                  Rng* rng) const {
  (void)rng;
  const size_t alive = net.alive_count();
  if (alive < 2) return 1.0;
  const uint32_t window =
      static_cast<uint32_t>(std::min<size_t>(window_, alive - 1));
  const uint64_t span = net.Visit(
      [&](const auto& topo) { return GapSpan(topo, origin, window); });
  if (span == 0) return static_cast<double>(alive);
  const double span_fraction =
      static_cast<double>(span) / 18446744073709551616.0;
  return std::max(1.0, static_cast<double>(window) / span_fraction);
}

std::string GapSizeEstimator::name() const {
  return StrCat("gap(w=", window_, ")");
}

}  // namespace oscar
