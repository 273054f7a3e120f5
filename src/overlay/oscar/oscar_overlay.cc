#include "overlay/oscar/oscar_overlay.h"

#include <algorithm>
#include <cmath>

#include "sampling/oracle_sampler.h"
#include "sampling/random_walk_sampler.h"

namespace oscar {
namespace {

/// Safety cap on the partition count log2(N-hat).
constexpr uint32_t kMaxPartitions = 48;

/// Saturated-target retries per link.
constexpr uint32_t kAttemptsPerLink = 8;

OscarOptions WithDefaults(OscarOptions options) {
  if (options.size_estimator == nullptr) {
    options.size_estimator = std::make_shared<OracleSizeEstimator>();
  }
  if (options.sampler == nullptr) {
    options.sampler = std::make_shared<RandomWalkSegmentSampler>();
  }
  options.samples_per_median = std::max(1u, options.samples_per_median);
  return options;
}

}  // namespace

KeyId OscarPartitioner::SampledMedian(NetworkView net, PeerId id,
                                      const RingSegment& seg, Rng* rng,
                                      uint64_t* steps) const {
  std::vector<uint64_t> offsets;  // Clockwise distance from segment start.
  offsets.reserve(options_->samples_per_median);
  for (uint32_t i = 0; i < options_->samples_per_median; ++i) {
    auto sample =
        options_->sampler->SampleInSegment(net, id, seg.from, seg.to, rng);
    if (!sample.ok()) continue;
    *steps += sample.value().steps;
    offsets.push_back(
        ClockwiseDistance(seg.from, net.key(sample.value().peer)));
  }
  if (offsets.empty()) {
    // Sampling failed (e.g. unreachable sliver): split at the key-space
    // midpoint, degrading gracefully to a Mercury-style cut locally.
    return KeyId::FromRaw(seg.from.raw + ClockwiseDistance(seg.from, seg.to) / 2);
  }
  std::sort(offsets.begin(), offsets.end());
  return KeyId::FromRaw(seg.from.raw + offsets[offsets.size() / 2]);
}

std::vector<RingSegment> OscarPartitioner::ComputePartitions(
    NetworkView net, PeerId id, Rng* rng, uint64_t* steps) const {
  if (!net.alive(id)) return {};
  return ComputePartitionsFromKey(net, id, net.key(id), rng, steps);
}

std::vector<RingSegment> OscarPartitioner::ComputePartitionsFromKey(
    NetworkView net, PeerId origin, KeyId self_key, Rng* rng,
    uint64_t* steps) const {
  if (steps == nullptr) steps = sampling_steps_;
  std::vector<RingSegment> partitions;
  if (net.alive_count() < 3) return partitions;

  // The full ring except the vantage key itself: clockwise from just
  // after it back around to it.
  RingSegment remaining{KeyId::FromRaw(self_key.raw + 1), self_key};
  if (net.ring().CountInSegment(remaining.from, remaining.to) == 0) {
    return partitions;
  }

  const double n_hat =
      options_->size_estimator->Estimate(net, origin, rng);
  const uint32_t k = std::min(
      kMaxPartitions,
      std::max(1u, static_cast<uint32_t>(std::floor(
                       std::log2(std::max(2.0, n_hat))))));

  for (uint32_t level = 0; level + 1 < k; ++level) {
    const KeyId median = SampledMedian(net, origin, remaining, rng, steps);
    // Guard degenerate cuts that would empty either side.
    if (median == remaining.from || median == remaining.to) break;
    const RingSegment far_half{median, remaining.to};
    if (net.ring().CountInSegment(far_half.from, far_half.to) == 0) break;
    partitions.push_back(far_half);  // Farthest population half first.
    remaining.to = median;
    if (net.ring().CountInSegment(remaining.from, remaining.to) <= 1) break;
  }
  partitions.push_back(remaining);  // Nearest partition last.
  return partitions;
}

OscarOverlay::OscarOverlay() : OscarOverlay(OscarOptions{}) {}

OscarOverlay::OscarOverlay(OscarOptions options)
    : options_(WithDefaults(std::move(options))),
      partitioner_(&options_, &sampling_steps_) {}

std::optional<LinkCandidate> OscarOverlay::SampleLinkCandidate(
    NetworkView net, PeerId id, const std::vector<RingSegment>& partitions,
    Rng* rng, uint64_t* steps, const RingSegment* fixed_segment) const {
  // Uniform partition + uniform peer inside it == harmonic in rank;
  // a caller may pin the partition instead (the planner's stratified
  // first round), trading the draw for guaranteed coverage.
  const RingSegment& segment =
      fixed_segment != nullptr
          ? *fixed_segment
          : partitions[static_cast<size_t>(
                rng->UniformInt(partitions.size()))];
  auto first = options_.sampler->SampleInSegment(net, id, segment.from,
                                                 segment.to, rng);
  if (!first.ok()) return std::nullopt;
  *steps += first.value().steps;
  LinkCandidate candidate;
  candidate.primary = first.value().peer;
  candidate.alternate = candidate.primary;
  if (options_.use_p2c) {
    // Power of two choices: sample a second candidate from the same
    // partition; whoever carries the lower relative in-load when the
    // link is actually placed wins.
    auto second = options_.sampler->SampleInSegment(net, id, segment.from,
                                                    segment.to, rng);
    if (second.ok()) {
      *steps += second.value().steps;
      candidate.alternate = second.value().peer;
    }
  }
  return candidate;
}

template <typename Accept>
void OscarOverlay::DrawSlots(NetworkView net, PeerId origin,
                             const std::vector<RingSegment>& partitions,
                             size_t pinned_slots, size_t target, Rng* rng,
                             uint64_t* steps, Accept accept) const {
  size_t filled = 0;
  for (size_t slot = 0; filled < target; ++slot) {
    const RingSegment* pinned =
        slot < pinned_slots ? &partitions[slot] : nullptr;
    bool found = false;
    for (uint32_t attempt = 0; attempt < kAttemptsPerLink; ++attempt) {
      const auto candidate =
          SampleLinkCandidate(net, origin, partitions, rng, steps, pinned);
      if (candidate.has_value() && accept(*candidate)) {
        found = true;
        break;
      }
    }
    if (found) {
      ++filled;
    } else if (pinned == nullptr) {
      // A dry pinned partition (unreachable sliver, or its peers
      // already taken) forfeits only its own slot; a dry uniform draw
      // means the partitions are out of fresh candidates everywhere.
      break;
    }
  }
}

Status OscarOverlay::BuildLinks(Network* net, PeerId id, Rng* rng) {
  if (!net->alive(id)) return Status::Ok();
  const uint32_t budget = net->RemainingOutBudget(id);
  if (budget == 0 || net->alive_count() < 3) return Status::Ok();

  const std::vector<RingSegment> partitions =
      partitioner_.ComputePartitions(*net, id, rng);
  if (partitions.empty()) return Status::Ok();

  // Uniform partition draws until the budget is spent or the
  // neighborhood is saturated.
  DrawSlots(*net, id, partitions, /*pinned_slots=*/0, budget, rng,
            &sampling_steps_, [&](const LinkCandidate& candidate) {
              // Incremental construction resolves the p2c pair right
              // here, against the loads the links it just placed have
              // produced.
              PeerId target = candidate.primary;
              if (candidate.alternate != candidate.primary &&
                  net->RelativeInLoad(candidate.alternate) <
                      net->RelativeInLoad(candidate.primary)) {
                target = candidate.alternate;
              }
              return net->AddLongLink(id, target);
            });
  return Status::Ok();
}

PeerLinkPlan OscarOverlay::PlanLinks(NetworkView net, PeerId id,
                                     Rng* rng) const {
  PeerLinkPlan plan;
  if (!net.alive(id)) return plan;
  // The rewire clears every long link before plans are applied, so the
  // budget is the full out-cap — not the frozen remaining budget.
  plan.budget = net.caps(id).max_out;
  if (plan.budget == 0 || net.alive_count() < 3) return plan;

  const std::vector<RingSegment> partitions =
      partitioner_.ComputePartitions(net, id, rng, &plan.sampling_steps);
  if (partitions.empty()) return plan;

  FillPlanSlots(net, id, partitions, &plan, rng);
  return plan;
}

PeerLinkPlan OscarOverlay::PlanJoinLinks(NetworkView net, KeyId key,
                                         DegreeCaps caps, Rng* rng) const {
  PeerLinkPlan plan;
  // A joiner starts linkless, so its budget is the full out-cap.
  plan.budget = caps.max_out;
  if (plan.budget == 0 || net.alive_count() < 3) return plan;
  // The joiner is not in `net`: walks originate at the owner of its
  // key — the bootstrap contact a real join would route to first.
  const auto origin = net.OwnerOf(key);
  if (!origin.has_value()) return plan;
  const std::vector<RingSegment> partitions =
      partitioner_.ComputePartitionsFromKey(net, *origin, key, rng,
                                            &plan.sampling_steps);
  if (partitions.empty()) return plan;
  FillPlanSlots(net, *origin, partitions, &plan, rng);
  return plan;
}

void OscarOverlay::FillPlanSlots(NetworkView net, PeerId origin,
                                 const std::vector<RingSegment>& partitions,
                                 PeerLinkPlan* plan, Rng* rng) const {
  // Sampling runs over the intact frozen topology (links still up —
  // what a live peer's walks would actually traverse); feasibility and
  // the p2c pair resolution belong to the apply phase, where loads are
  // live. Planning only rejects what the peer itself can see:
  // re-sampled primaries already slotted in its own plan.
  // Stratified first round — one slot pinned to each partition,
  // farthest first — then uniform partition draws, the paper's
  // construction (one neighbor per partition) generalized to budgets
  // beyond log2(N-hat). Uniform draws alone leave a few percent of
  // peers with no far link at all (Binomial variance), and those
  // missing longest hops are exactly what greedy routing pays for
  // most.
  const size_t pinned_slots =
      std::min(partitions.size(), static_cast<size_t>(plan->budget));
  DrawSlots(net, origin, partitions, pinned_slots,
            static_cast<size_t>(plan->budget) + kPlanBackupSlots, rng,
            &plan->sampling_steps, [&](const LinkCandidate& candidate) {
              const bool seen =
                  std::find_if(plan->candidates.begin(),
                               plan->candidates.end(),
                               [&](const LinkCandidate& c) {
                                 return c.primary == candidate.primary;
                               }) != plan->candidates.end();
              if (seen) return false;
              plan->candidates.push_back(candidate);
              return true;
            });
}

}  // namespace oscar
