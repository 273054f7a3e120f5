// Key distributions: how peer identifiers (and query keys) are spread
// over the unit ring. The paper's point is precisely that realistic
// distributions are NOT uniform, so this is a first-class strategy.

#ifndef OSCAR_KEYSPACE_KEY_DISTRIBUTION_H_
#define OSCAR_KEYSPACE_KEY_DISTRIBUTION_H_

#include <memory>
#include <string>
#include <vector>

#include "core/key_id.h"
#include "core/rng.h"

namespace oscar {

class KeyDistribution {
 public:
  virtual ~KeyDistribution() = default;
  virtual KeyId Sample(Rng* rng) const = 0;
  virtual std::string name() const = 0;
};

using KeyDistributionPtr = std::shared_ptr<KeyDistribution>;

/// Uniform keys — the assumption classic DHTs bake in.
class UniformKeyDistribution : public KeyDistribution {
 public:
  KeyId Sample(Rng* rng) const override {
    return KeyId::FromUnit(rng->NextDouble());
  }
  std::string name() const override { return "uniform"; }
};

/// Extreme skew: almost all keys fall into a handful of very narrow
/// clusters (plus a thin uniform background). Breaks key-space-uniform
/// finger constructions completely.
class ClusteredKeyDistribution : public KeyDistribution {
 public:
  ClusteredKeyDistribution();
  KeyId Sample(Rng* rng) const override;
  std::string name() const override { return "clustered"; }

 private:
  struct Cluster {
    double center;
    double width;
    double weight;  // Cumulative for inverse-CDF selection.
  };
  std::vector<Cluster> clusters_;
  double background_;  // Probability mass of the uniform background.
};

/// Query-key skew over a fixed, non-empty set of hot keys: rank r
/// (1-based position in `keys`) is drawn with probability ∝ 1/r^s.
/// Inverse-CDF sampling keeps one rng draw per query. Sample only reads
/// the instance, so concurrent callers may share one.
class ZipfHotKeys final : public KeyDistribution {
 public:
  ZipfHotKeys(std::vector<KeyId> keys, double exponent);
  KeyId Sample(Rng* rng) const override;
  std::string name() const override { return "zipf-hot"; }

 private:
  std::vector<KeyId> keys_;
  std::vector<double> cumulative_;
};

}  // namespace oscar

#endif  // OSCAR_KEYSPACE_KEY_DISTRIBUTION_H_
