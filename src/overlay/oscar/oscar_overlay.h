// The Oscar overlay (Girdzijauskas, Datta, Aberer — ICDE'07): a
// small-world construction that stays navigable under ANY key
// distribution by measuring distance in peer population rather than
// key space. Each peer recursively halves the remaining ring population
// using sampled medians, yielding ~log2(N-hat) partitions of
// exponentially decreasing population; drawing a long link by picking a
// partition uniformly and a peer uniformly inside it reproduces the
// harmonic 1/rank law Kleinberg navigability requires.

#ifndef OSCAR_OVERLAY_OSCAR_OSCAR_OVERLAY_H_
#define OSCAR_OVERLAY_OSCAR_OSCAR_OVERLAY_H_

#include <optional>
#include <vector>

#include "overlay/overlay.h"
#include "sampling/segment_sampler.h"
#include "sampling/size_estimator.h"

namespace oscar {

struct OscarOptions {
  SizeEstimatorPtr size_estimator;  // Defaults to OracleSizeEstimator.
  SegmentSamplerPtr sampler;        // Defaults to RandomWalkSegmentSampler.
  uint32_t samples_per_median = 9;  // Per-median sample size (ablation X2).
  bool use_p2c = true;              // Power-of-two-choices in-degree balance.
};

/// A clockwise ring segment [from, to).
struct RingSegment {
  KeyId from;
  KeyId to;
};

/// Computes a peer's population partitions via sampled medians. Exposed
/// separately so harnesses can benchmark and inspect partitioning alone.
class OscarPartitioner {
 public:
  OscarPartitioner(const OscarOptions* options, uint64_t* sampling_steps)
      : options_(options), sampling_steps_(sampling_steps) {}

  /// Partitions of the ring as seen from `id`, ordered farthest (about
  /// half the population) to nearest (a handful of peers). Empty when
  /// the network is too small to partition. `steps` receives the
  /// sampling spend; when null it is charged to the enclosing overlay's
  /// counter — the single-threaded convenience the harnesses use. The
  /// parallel planner always passes its own per-plan accumulator, which
  /// is what makes this method safe to call concurrently.
  std::vector<RingSegment> ComputePartitions(NetworkView net, PeerId id,
                                             Rng* rng,
                                             uint64_t* steps = nullptr) const;

  /// Partitions as seen from a key that need not belong to any peer in
  /// `net` — the joiner's view before it joins. Sampling walks start at
  /// `origin` (an alive peer, typically the owner of `self_key`).
  /// ComputePartitions(net, id, ...) is exactly this with origin == id
  /// and self_key == net.key(id).
  std::vector<RingSegment> ComputePartitionsFromKey(
      NetworkView net, PeerId origin, KeyId self_key, Rng* rng,
      uint64_t* steps) const;

 private:
  /// Median key of the clockwise segment, by sampling; falls back to the
  /// key-space midpoint when sampling fails.
  KeyId SampledMedian(NetworkView net, PeerId id, const RingSegment& seg,
                      Rng* rng, uint64_t* steps) const;

  const OscarOptions* options_;
  uint64_t* sampling_steps_;  // Owned by the enclosing overlay.
};

class OscarOverlay : public Overlay {
 public:
  OscarOverlay();
  explicit OscarOverlay(OscarOptions options);

  // Non-copyable: the partitioner aliases this instance's state.
  OscarOverlay(const OscarOverlay&) = delete;
  OscarOverlay& operator=(const OscarOverlay&) = delete;

  std::string name() const override { return "oscar"; }
  Status BuildLinks(Network* net, PeerId id, Rng* rng) override;

  /// Read-only rewiring plan over a frozen topology: same partition +
  /// sampling machinery as BuildLinks, but assuming the global link
  /// clear that precedes a checkpoint rewire, and with all state
  /// (candidates, sampling spend) returned instead of applied — safe to
  /// fan out across threads with per-peer rng streams.
  bool SupportsPlanning() const override { return true; }
  PeerLinkPlan PlanLinks(NetworkView net, PeerId id,
                         Rng* rng) const override;

  /// Join-time plan for a peer not yet in `net`: partitions computed
  /// from the joiner's key with walks originating at the key's owner,
  /// then the same stratified slot fill as PlanLinks. Thread-safe.
  bool SupportsJoinPlanning() const override { return true; }
  PeerLinkPlan PlanJoinLinks(NetworkView net, KeyId key, DegreeCaps caps,
                             Rng* rng) const override;

  void AddSamplingSteps(uint64_t steps) override { sampling_steps_ += steps; }

  uint64_t sampling_steps() const override { return sampling_steps_; }

  const OscarPartitioner& partitioner() const { return partitioner_; }
  const OscarOptions& options() const { return options_; }

 private:
  /// Draws one link slot from `partitions`: uniform partition (or the
  /// pinned `fixed_segment`), sampled primary, and (with p2c on) a
  /// sampled alternate from the same partition. Exactly the rng
  /// consumption of one BuildLinks attempt; WHO wins the pair is the
  /// caller's business — BuildLinks compares live loads immediately,
  /// PlanLinks defers to apply time.
  std::optional<LinkCandidate> SampleLinkCandidate(
      NetworkView net, PeerId id, const std::vector<RingSegment>& partitions,
      Rng* rng, uint64_t* steps,
      const RingSegment* fixed_segment = nullptr) const;

  /// The one slot loop of BuildLinks and FillPlanSlots. Slot s below
  /// `pinned_slots` is pinned to partitions[s]; later slots draw their
  /// partition uniformly. Each slot spends up to kAttemptsPerLink
  /// candidate draws until `accept` takes one. The loop ends once
  /// `target` slots are filled or an unpinned slot comes up dry.
  template <typename Accept>
  void DrawSlots(NetworkView net, PeerId origin,
                 const std::vector<RingSegment>& partitions,
                 size_t pinned_slots, size_t target, Rng* rng,
                 uint64_t* steps, Accept accept) const;

  /// The shared slot loop of PlanLinks and PlanJoinLinks: stratified
  /// first round over `partitions`, then uniform draws, deduped on
  /// primaries, until budget + kPlanBackupSlots candidates are filled.
  /// `origin` is the walk origin (the peer itself when rewiring, the
  /// joiner key's owner when join-planning).
  void FillPlanSlots(NetworkView net, PeerId origin,
                     const std::vector<RingSegment>& partitions,
                     PeerLinkPlan* plan, Rng* rng) const;

  OscarOptions options_;
  uint64_t sampling_steps_ = 0;
  OscarPartitioner partitioner_;
};

}  // namespace oscar

#endif  // OSCAR_OVERLAY_OSCAR_OSCAR_OVERLAY_H_
