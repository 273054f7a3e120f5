// Protocol-level sampler: a random walk over the overlay graph,
// rejection-tested at stride intervals until it lands in the requested
// segment. For very small segments, where rejection would take O(N)
// steps, it falls back to greedy-routing to a random key inside the
// segment — the range-walk trick a deployed Oscar node would use,
// slightly gap-biased but cheap.

#ifndef OSCAR_SAMPLING_RANDOM_WALK_SAMPLER_H_
#define OSCAR_SAMPLING_RANDOM_WALK_SAMPLER_H_

#include "sampling/segment_sampler.h"

namespace oscar {

struct RandomWalkOptions {
  uint32_t burn_in = 12;         // Steps before the first membership test.
  uint32_t test_stride = 6;      // Steps between membership tests.
  uint32_t max_walk_steps = 72;  // Rejection budget before falling back.
  /// Segments at or below this population are served from the successor
  /// list instead (uniform pick, one message per peer enumerated):
  /// rejection-walking into a sliver of the ring is hopeless, and every
  /// DHT node maintains its near neighborhood anyway.
  uint32_t successor_list_cutoff = 48;
  /// When the rejection budget is exhausted the sampler routes to a
  /// random key in the segment and spreads the landing over this many
  /// clockwise successors. Taking the owner alone would be gap-biased:
  /// peers in dense clusters own almost no key space, get starved of
  /// in-links, lose walk degree, and the starvation feeds back.
  uint32_t fallback_spread = 8;
  /// Metropolis-Hastings acceptance floor. Pure MH (accept with
  /// deg_u/deg_v) makes the walk uniform over peers but traps it at
  /// low-degree nodes — a freshly joined peer with two ring links would
  /// reject ~93% of its escape moves. The floor bounds the trap at
  /// 1/floor expected steps and still removes most of the degree bias.
  double mh_floor = 0.3;
  /// Test-only hook: when set, every walk position is appended — the
  /// origin, then each accepted proposal. The backend-equivalence test
  /// uses it to hold walks over a live Network and over its frozen
  /// snapshot to the identical visited-peer sequence. Not thread-safe;
  /// leave null outside tests.
  std::vector<PeerId>* visit_trace = nullptr;
};

class RandomWalkSegmentSampler : public SegmentSampler {
 public:
  RandomWalkSegmentSampler() = default;
  explicit RandomWalkSegmentSampler(RandomWalkOptions options)
      : options_(options) {}

  Result<SegmentSample> SampleInSegment(NetworkView net, PeerId origin,
                                        KeyId from, KeyId to,
                                        Rng* rng) const override;
  std::string name() const override { return "random-walk"; }

 private:
  RandomWalkOptions options_;
};

}  // namespace oscar

#endif  // OSCAR_SAMPLING_RANDOM_WALK_SAMPLER_H_
