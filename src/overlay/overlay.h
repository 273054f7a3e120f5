// Overlay strategy interface: how a peer chooses its long-range links.
// All overlays share the ring substrate (Network maintains alive ring
// neighbors); BuildLinks tops a peer's long out-links up to its budget,
// so the same call serves join, repair, and full rewiring.

#ifndef OSCAR_OVERLAY_OVERLAY_H_
#define OSCAR_OVERLAY_OVERLAY_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/network.h"
#include "core/network_view.h"
#include "core/rng.h"

namespace oscar {

/// One peer's rewiring intent, computed read-only against a frozen
/// pre-checkpoint topology. `candidates` is the ordered slot list the
/// peer would link to (each a sampled target plus optional p2c
/// alternate, resolved against live loads at apply); the apply phase
/// (Network::ApplyLinkPlan) walks it until `budget` links land,
/// skipping targets whose in-caps other peers' plans saturated first —
/// which is why a planner may propose a few more slots than it has
/// budget for.
struct PeerLinkPlan {
  std::vector<LinkCandidate> candidates;
  uint32_t budget = 0;
  uint64_t sampling_steps = 0;  // Protocol messages this plan cost.
};

/// Candidate slots a planner proposes beyond the out budget. Plans are
/// computed blind to each other, so some slots die at apply time
/// against targets other plans saturated first; the backups (plus each
/// slot's p2c alternate) let ApplyLinkPlan refill without a second
/// sampling round.
inline constexpr uint32_t kPlanBackupSlots = 4;

class Overlay {
 public:
  virtual ~Overlay() = default;

  virtual std::string name() const = 0;

  /// Builds long links for `id` until its out budget is exhausted (or
  /// the strategy gives up on saturated targets). Idempotent top-up:
  /// existing links are kept.
  virtual Status BuildLinks(Network* net, PeerId id, Rng* rng) = 0;

  /// True when PlanLinks is implemented. Checkpoint rewiring then
  /// freezes the pre-checkpoint topology once and plans every peer
  /// read-only over it — order-independent and thread-safe — instead
  /// of rebuilding peers one by one against a half-rewired network.
  virtual bool SupportsPlanning() const { return false; }

  /// Plans `id`'s post-rewire links against `net` (typically a frozen
  /// TopologySnapshot), assuming all long links will be cleared before
  /// the plan is applied. Must be thread-safe: called concurrently for
  /// distinct peers with per-peer forked rngs, and must not mutate
  /// overlay state — sampling spend is returned in the plan and folded
  /// back via AddSamplingSteps after the deterministic reduce.
  virtual PeerLinkPlan PlanLinks(NetworkView net, PeerId id,
                                 Rng* rng) const {
    (void)net;
    (void)id;
    (void)rng;
    return PeerLinkPlan{};
  }

  /// Plans the long links a NOT-yet-joined peer (known only by its
  /// `key` and degree `caps`) would build, read-only against `net` —
  /// typically a frozen epoch snapshot shared by a whole join batch.
  /// Sampling walks originate at the snapshot owner of `key`, the peer
  /// a real joiner would contact first. Must be thread-safe exactly
  /// like PlanLinks: concurrent calls with per-joiner forked rngs, no
  /// overlay state mutation. Overlays that return true from
  /// SupportsPlanning() and want batched joins override this; the
  /// default plans nothing (Simulation then keeps such overlays on the
  /// sequential per-join path).
  virtual PeerLinkPlan PlanJoinLinks(NetworkView net, KeyId key,
                                     DegreeCaps caps, Rng* rng) const {
    (void)net;
    (void)key;
    (void)caps;
    (void)rng;
    return PeerLinkPlan{};
  }

  /// True when PlanJoinLinks is implemented — the gate for the batched
  /// join path (join_batch > 0 in GrowthConfig).
  virtual bool SupportsJoinPlanning() const { return false; }

  /// Folds sampling spend measured outside BuildLinks (the planning
  /// fan-out) back into sampling_steps(). No-op for oracle overlays.
  virtual void AddSamplingSteps(uint64_t steps) { (void)steps; }

  /// Cumulative protocol messages spent on sampling by this overlay
  /// instance (0 for oracle constructions).
  virtual uint64_t sampling_steps() const { return 0; }
};

using OverlayPtr = std::shared_ptr<Overlay>;
using OverlayFactory = std::function<OverlayPtr()>;

}  // namespace oscar

#endif  // OSCAR_OVERLAY_OVERLAY_H_
