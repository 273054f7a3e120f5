// Mercury-style baseline: harmonic link construction measured in KEY
// SPACE rather than population. A peer draws a clockwise key-space
// distance d = exp((U - 1) * ln(N)) (harmonic over [1/N, 1]) and links
// to the owner of that key. Correct small-world geometry when keys are
// uniform; under skew, the geometry warps and in-links concentrate on
// peers owning large key-space gaps — the comparison the paper
// inherits from [8].

#ifndef OSCAR_OVERLAY_MERCURY_MERCURY_OVERLAY_H_
#define OSCAR_OVERLAY_MERCURY_MERCURY_OVERLAY_H_

#include "overlay/overlay.h"

namespace oscar {

class MercuryOverlay : public Overlay {
 public:
  std::string name() const override { return "mercury"; }
  Status BuildLinks(Network* net, PeerId id, Rng* rng) override;

  /// Mercury's draws are pure key-space arithmetic over the ring index
  /// — no sampling walks, no overlay state — so planning is the same
  /// harmonic draw loop emitting candidates instead of links. With
  /// plans in hand Mercury rides the same parallel checkpoint-rewire
  /// and batched-join paths as Oscar (Chord and Kleinberg stay on the
  /// sequential rebuild: their oracle constructions are not worth
  /// planning).
  bool SupportsPlanning() const override { return true; }
  PeerLinkPlan PlanLinks(NetworkView net, PeerId id,
                         Rng* rng) const override;
  bool SupportsJoinPlanning() const override { return true; }
  PeerLinkPlan PlanJoinLinks(NetworkView net, KeyId key, DegreeCaps caps,
                             Rng* rng) const override;

 private:
  /// BuildLinks' harmonic key-space draws from `own_key` as a plan of
  /// budget + kPlanBackupSlots candidates, deduped on owners (and on
  /// `self`, the planning peer itself during a rewire; self == nullopt
  /// when join-planning for a peer not yet in `net`).
  static PeerLinkPlan PlanFrom(NetworkView net, KeyId own_key,
                               uint32_t budget, std::optional<PeerId> self,
                               Rng* rng);
};

}  // namespace oscar

#endif  // OSCAR_OVERLAY_MERCURY_MERCURY_OVERLAY_H_
