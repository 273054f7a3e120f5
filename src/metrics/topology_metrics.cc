#include "metrics/topology_metrics.h"

#include <algorithm>
#include <cmath>

namespace oscar {

LinkGeometryReport ComputeLinkGeometry(NetworkView net) {
  LinkGeometryReport report;
  const size_t n = net.alive_count();
  if (n < 2) return report;

  size_t octaves = 0;
  while ((size_t{1} << (octaves + 1)) <= n - 1) ++octaves;
  ++octaves;  // Octave for the top partial range.
  report.octave_counts.assign(octaves, 0);

  const Ring& ring = net.ring();
  for (size_t index = 0; index < n; ++index) {
    const PeerId id = ring.at(index).id;
    for (PeerId target : net.OutLinks(id)) {
      if (!net.alive(target)) continue;
      const uint32_t target_pos = ring.PosOf(target);
      if (target_pos == Ring::kNotOnRing) continue;
      const size_t rank = (target_pos + n - index) % n;
      if (rank == 0) continue;
      const size_t octave = static_cast<size_t>(
          std::floor(std::log2(static_cast<double>(rank))));
      ++report.octave_counts[std::min(octave, octaves - 1)];
      ++report.total_links;
    }
  }

  // Imbalance over octaves fully contained in [1, n): the top octave is
  // truncated by the ring size and would distort the flatness measure.
  size_t full_octaves = 0;
  while ((size_t{1} << (full_octaves + 1)) <= n - 1) ++full_octaves;
  if (full_octaves == 0 || report.total_links == 0) return report;
  uint64_t in_full = 0, max_count = 0;
  for (size_t i = 0; i < full_octaves; ++i) {
    in_full += report.octave_counts[i];
    max_count = std::max(max_count, report.octave_counts[i]);
  }
  if (in_full == 0) return report;
  const double mean = static_cast<double>(in_full) /
                      static_cast<double>(full_octaves);
  report.octave_imbalance = static_cast<double>(max_count) / mean;
  return report;
}

}  // namespace oscar
