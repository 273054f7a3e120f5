#include "keyspace/key_distribution.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace oscar {

ClusteredKeyDistribution::ClusteredKeyDistribution() : background_(0.02) {
  // Five narrow hotspots of unequal popularity. Widths are a few 1e-4 of
  // the ring, so at simulated sizes hundreds of peers share a span no
  // fixed key-space finger can resolve.
  const double centers[] = {0.08, 0.21, 0.45, 0.60, 0.83};
  const double widths[] = {2e-4, 1e-4, 4e-4, 1e-4, 2e-4};
  const double weights[] = {0.30, 0.15, 0.25, 0.10, 0.18};
  double cumulative = 0.0;
  for (int i = 0; i < 5; ++i) {
    cumulative += weights[i];
    clusters_.push_back(Cluster{centers[i], widths[i], cumulative});
  }
}

KeyId ClusteredKeyDistribution::Sample(Rng* rng) const {
  const double pick = rng->NextDouble();
  if (pick >= 1.0 - background_) {
    return KeyId::FromUnit(rng->NextDouble());
  }
  const double scaled = pick / (1.0 - background_) *
                        clusters_.back().weight;
  for (const Cluster& cluster : clusters_) {
    if (scaled <= cluster.weight) {
      const double offset = (rng->NextDouble() - 0.5) * cluster.width;
      return KeyId::FromUnit(cluster.center + offset);
    }
  }
  return KeyId::FromUnit(rng->NextDouble());
}

ZipfHotKeys::ZipfHotKeys(std::vector<KeyId> keys, double exponent)
    : keys_(std::move(keys)) {
  double total = 0.0;
  cumulative_.reserve(keys_.size());
  for (size_t rank = 1; rank <= keys_.size(); ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), exponent);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

KeyId ZipfHotKeys::Sample(Rng* rng) const {
  const double u = rng->NextDouble();
  const auto it = std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  const size_t index = std::min(
      static_cast<size_t>(it - cumulative_.begin()), keys_.size() - 1);
  return keys_[index];
}

}  // namespace oscar
