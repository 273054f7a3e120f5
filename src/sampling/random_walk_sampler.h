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

// The walk's tunables (burn-in, test stride, step budget, successor-list
// cutoff, fallback spread, Metropolis-Hastings floor) are constants in
// random_walk_sampler.cc.
struct RandomWalkOptions {
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
