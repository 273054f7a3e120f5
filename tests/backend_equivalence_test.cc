// Backend equivalence: every read-side algorithm is written once over
// NetworkView, and running it over a live Network or over a frozen
// TopologySnapshot of it must give the same result — route steppers
// move for move (same step kinds, hops, dead probes and final routes),
// whole routes, random walks visit for visit (same visited-peer
// sequence, sample and step charge from the same rng stream), and gap
// size estimates — on seeds 42-45, intact and crashed. This is the
// guard that lets churn evaluation, checkpoint rewiring and the serving
// tier read snapshots without moving a harness byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "churn/churn.h"
#include "core/network_view.h"
#include "core/topology_snapshot.h"
#include "overlay/kleinberg/kleinberg_overlay.h"
#include "routing/route_stepper.h"
#include "sampling/random_walk_sampler.h"
#include "sampling/size_estimator.h"

namespace oscar {
namespace {

Network LinkedNetwork(size_t n, uint64_t seed) {
  Network net;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    net.Join(KeyId::FromUnit(rng.NextDouble()), DegreeCaps{8, 8});
  }
  KleinbergOverlay overlay;
  for (PeerId id : net.AlivePeers()) {
    EXPECT_TRUE(overlay.BuildLinks(&net, id, &rng).ok());
  }
  return net;
}

/// Drives one stepper over the live view and a second over the frozen
/// view one Step at a time and requires every observable of every step
/// to agree.
template <typename Stepper>
void ExpectLockstepEqual(Stepper& on_live, Stepper& on_frozen,
                         NetworkView live, NetworkView frozen, PeerId source,
                         KeyId target, const std::string& label) {
  on_live.Start(live, source, target);
  on_frozen.Start(frozen, source, target);
  ASSERT_EQ(on_live.done(), on_frozen.done()) << label;
  // Every step forwards to an unvisited alive peer, pops the route's
  // stack or ends it, so both algorithms finish within 2 * alive steps.
  for (size_t i = 0; i < 2 * live.alive_count() + 2 && !on_live.done();
       ++i) {
    ASSERT_FALSE(on_frozen.done()) << label << " step " << i;
    const RouteStep a = on_live.Step(live);
    const RouteStep b = on_frozen.Step(frozen);
    ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind))
        << label << " step " << i;
    ASSERT_EQ(a.from, b.from) << label << " step " << i;
    ASSERT_EQ(a.to, b.to) << label << " step " << i;
    ASSERT_EQ(a.dead_probes, b.dead_probes) << label << " step " << i;
    ASSERT_EQ(on_live.current(), on_frozen.current())
        << label << " step " << i;
    ASSERT_EQ(on_live.done(), on_frozen.done()) << label << " step " << i;
  }
  ASSERT_TRUE(on_live.done() && on_frozen.done()) << label;
  const RouteResult& ra = on_live.result();
  const RouteResult& rb = on_frozen.result();
  EXPECT_EQ(ra.success, rb.success) << label;
  EXPECT_EQ(ra.hops, rb.hops) << label;
  EXPECT_EQ(ra.wasted, rb.wasted) << label;
  EXPECT_EQ(ra.terminal, rb.terminal) << label;
  EXPECT_EQ(ra.path, rb.path) << label;
}

TEST(BackendEquivalenceTest, SteppersLockstepAcrossSeedsAndCrashLevels) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    for (const double crash : {0.0, 0.2}) {
      Network net = LinkedNetwork(250, seed);
      if (crash > 0.0) {
        Rng crash_rng(seed ^ 0xfeedULL);
        ASSERT_TRUE(CrashFraction(&net, crash, &crash_rng).ok());
      }
      const TopologySnapshot snap(net);
      const std::vector<PeerId> alive = net.AlivePeers();
      Rng query_rng(seed * 777);
      for (int q = 0; q < 120; ++q) {
        const PeerId source =
            alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
        const KeyId target = KeyId::FromUnit(query_rng.NextDouble());
        GreedyStepper greedy_live, greedy_frozen;
        ExpectLockstepEqual(greedy_live, greedy_frozen, net, snap, source,
                            target, "greedy");
        BacktrackingStepper dfs_live, dfs_frozen;
        ExpectLockstepEqual(dfs_live, dfs_frozen, net, snap, source, target,
                            "backtracking");
      }
    }
  }
}

TEST(BackendEquivalenceTest, RoutersMatchPerQuery) {
  // Route over the live network vs over each snapshot, for both
  // algorithms: whole-route equality, the harness-facing contract.
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Network net = LinkedNetwork(250, seed);
    Rng crash_rng(seed ^ 0xbeefULL);
    ASSERT_TRUE(CrashFraction(&net, 0.15, &crash_rng).ok());
    const TopologySnapshot snap(net);
    const std::vector<PeerId> alive = net.AlivePeers();
    Rng query_rng(seed * 1009);
    for (int q = 0; q < 150; ++q) {
      const PeerId source =
          alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
      const KeyId target = KeyId::FromUnit(query_rng.NextDouble());
      for (const Routing routing :
           {Routing::kGreedy, Routing::kBacktracking}) {
        const int algo = static_cast<int>(routing);
        const RouteResult live = Route(routing, net, source, target);
        const RouteResult frozen = Route(routing, snap, source, target);
        ASSERT_EQ(live.success, frozen.success)
            << "routing " << algo << " seed " << seed << " query " << q;
        ASSERT_EQ(live.hops, frozen.hops)
            << "routing " << algo << " seed " << seed << " query " << q;
        ASSERT_EQ(live.wasted, frozen.wasted)
            << "routing " << algo << " seed " << seed << " query " << q;
        ASSERT_EQ(live.path, frozen.path)
            << "routing " << algo << " seed " << seed << " query " << q;
      }
    }
  }
}

/// One SampleInSegment call's observable outcome.
struct WalkRecord {
  bool ok = false;
  PeerId peer = 0;
  uint64_t steps = 0;
  std::vector<PeerId> visited;  // Empty when no rejection walk ran.
};

/// Samples 250 segments from `view` with the walk rng and the segment
/// chooser both seeded from `seed`, so every backend sees the same
/// segments and must consume the walk stream identically.
std::vector<WalkRecord> SampleWalks(NetworkView view,
                                    const std::vector<PeerId>& alive,
                                    uint64_t seed) {
  std::vector<PeerId> visited;
  RandomWalkOptions options;
  options.visit_trace = &visited;
  const RandomWalkSegmentSampler sampler(options);
  Rng walk_rng(seed * 31337);
  Rng segment_rng(seed * 101);
  std::vector<WalkRecord> records;
  for (int q = 0; q < 250; ++q) {
    const PeerId origin =
        alive[static_cast<size_t>(segment_rng.UniformInt(alive.size()))];
    const KeyId from = KeyId::FromUnit(segment_rng.NextDouble());
    // Sweep widths: slivers (successor list), mid, and near-full ring
    // (rejection walk hits its stride tests fast).
    const double width = 0.02 + 0.9 * segment_rng.NextDouble();
    const KeyId to = from.OffsetBy(width);
    visited.clear();
    const auto sample =
        sampler.SampleInSegment(view, origin, from, to, &walk_rng);
    WalkRecord record;
    record.ok = sample.ok();
    if (sample.ok()) {
      record.peer = sample.value().peer;
      record.steps = sample.value().steps;
    }
    record.visited = visited;
    records.push_back(record);
  }
  return records;
}

TEST(BackendEquivalenceTest, WalksLockstepAcrossSeedsAndCrashLevels) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    for (const double crash : {0.0, 0.15}) {
      Network net = LinkedNetwork(300, seed);
      if (crash > 0.0) {
        Rng crash_rng(seed ^ 0xc0ffeeULL);
        ASSERT_TRUE(CrashFraction(&net, crash, &crash_rng).ok());
      }
      const TopologySnapshot snap(net);
      const std::vector<PeerId> alive = net.AlivePeers();
      const std::vector<WalkRecord> live = SampleWalks(net, alive, seed);
      size_t walks_taken = 0;
      for (const WalkRecord& record : live) {
        if (record.ok && !record.visited.empty()) ++walks_taken;
      }
      // The sweep must actually exercise the walk path, not just the
      // shared successor-list branch.
      EXPECT_GT(walks_taken, 50u) << "seed " << seed << " crash " << crash;
      const std::vector<WalkRecord> frozen = SampleWalks(snap, alive, seed);
      ASSERT_EQ(live.size(), frozen.size());
      for (size_t q = 0; q < live.size(); ++q) {
        ASSERT_EQ(live[q].ok, frozen[q].ok) << "seed " << seed << " q " << q;
        if (!live[q].ok) continue;
        ASSERT_EQ(live[q].peer, frozen[q].peer)
            << "seed " << seed << " q " << q;
        ASSERT_EQ(live[q].steps, frozen[q].steps)
            << "seed " << seed << " q " << q;
        ASSERT_EQ(live[q].visited, frozen[q].visited)
            << "visited sequences diverged, seed " << seed << " q " << q;
      }
    }
  }
}

/// The gap estimate spelled out over SuccessorOf, as the estimator's
/// contract states it: window / (summed key-space span of the `window`
/// successor gaps after `origin`), the alive count when that span is 0.
double ReferenceGapEstimate(const Network& net, PeerId origin,
                            uint32_t window) {
  const size_t alive = net.alive_count();
  window = static_cast<uint32_t>(std::min<size_t>(window, alive - 1));
  uint64_t span = 0;
  PeerId current = origin;
  for (uint32_t i = 0; i < window; ++i) {
    const auto next = net.SuccessorOf(current);
    if (!next.has_value()) break;
    span += ClockwiseDistance(net.key(current), net.key(*next));
    current = *next;
  }
  if (span == 0) return static_cast<double>(alive);
  const double fraction = static_cast<double>(span) / 18446744073709551616.0;
  return std::max(1.0, static_cast<double>(window) / fraction);
}

TEST(BackendEquivalenceTest, GapEstimatorMatches) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Network net = LinkedNetwork(220, seed);
    Rng crash_rng(seed ^ 0xabcULL);
    ASSERT_TRUE(CrashFraction(&net, 0.15, &crash_rng).ok());
    const TopologySnapshot snap(net);
    Rng rng(seed);  // Unused by the gap estimator; signature only.
    for (const uint32_t window : {4u, 16u, 64u}) {
      const GapSizeEstimator estimator(window);
      for (PeerId id = 0; id < net.size(); ++id) {
        const double live = estimator.Estimate(net, id, &rng);
        EXPECT_DOUBLE_EQ(live, ReferenceGapEstimate(net, id, window))
            << "window " << window << " peer " << id;
        EXPECT_DOUBLE_EQ(live, estimator.Estimate(snap, id, &rng))
            << "window " << window << " peer " << id;
      }
    }
  }
}

}  // namespace
}  // namespace oscar
