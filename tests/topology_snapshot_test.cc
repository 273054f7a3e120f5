// TopologySnapshot / NetworkView equivalence: a frozen snapshot must
// answer every read query exactly like the live Network it froze, a
// Restore() must be structurally indistinguishable from the original,
// and whole routes driven over a snapshot view must match routes over
// the live network hop for hop (seeds 42-45) — the contract that lets
// churn experiments and scenario replays swap deep copies for
// snapshot restores without moving a single harness byte.

#include <gtest/gtest.h>

#include "churn/churn.h"
#include "core/network_view.h"
#include "core/topology_snapshot.h"
#include "overlay/kleinberg/kleinberg_overlay.h"
#include "routing/router.h"

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

std::vector<PeerId> ToVector(PeerSpan span) {
  return std::vector<PeerId>(span.begin(), span.end());
}

/// The neighbor row NeighborRowOf builds for `id`, flattened in row
/// order — the order routers and walks consume it in.
template <typename Topo>
std::vector<PeerId> RowOf(const Topo& topo, PeerId id, bool with_in_links) {
  std::vector<PeerId> out;
  NeighborRowOf(topo, id, topo.ring().PosOf(id), with_in_links)
      .ForEach([&](PeerId n) { out.push_back(n); });
  return out;
}

/// Every read the view exposes, compared between the two backends.
void ExpectViewsAgree(const Network& net, const TopologySnapshot& snap) {
  const NetworkView live(net);
  const NetworkView frozen(snap);
  ASSERT_EQ(live.size(), frozen.size());
  ASSERT_EQ(live.alive_count(), frozen.alive_count());
  EXPECT_EQ(live.AlivePeers(), frozen.AlivePeers());
  for (PeerId id = 0; id < net.size(); ++id) {
    EXPECT_EQ(live.key(id), frozen.key(id)) << "peer " << id;
    EXPECT_EQ(live.alive(id), frozen.alive(id)) << "peer " << id;
    EXPECT_EQ(live.caps(id).max_in, frozen.caps(id).max_in) << "peer " << id;
    EXPECT_EQ(live.caps(id).max_out, frozen.caps(id).max_out)
        << "peer " << id;
    EXPECT_EQ(live.SuccessorOf(id), frozen.SuccessorOf(id)) << "peer " << id;
    EXPECT_EQ(live.PredecessorOf(id), frozen.PredecessorOf(id))
        << "peer " << id;
    EXPECT_EQ(ToVector(live.OutLinks(id)), ToVector(frozen.OutLinks(id)))
        << "peer " << id;
    EXPECT_EQ(ToVector(live.InLinks(id)), ToVector(frozen.InLinks(id)))
        << "peer " << id;
    // Neighbor rows: ring successor, predecessor when distinct, out-links,
    // then (walk rows only) in-links — on both backends.
    std::vector<PeerId> expected;
    const auto succ = live.SuccessorOf(id);
    const auto pred = live.PredecessorOf(id);
    if (succ.has_value()) expected.push_back(*succ);
    if (pred.has_value() && pred != succ) expected.push_back(*pred);
    for (PeerId target : live.OutLinks(id)) expected.push_back(target);
    EXPECT_EQ(RowOf(net, id, false), expected) << "peer " << id;
    EXPECT_EQ(RowOf(snap, id, false), expected) << "peer " << id;
    for (PeerId source : live.InLinks(id)) expected.push_back(source);
    EXPECT_EQ(RowOf(net, id, true), expected) << "peer " << id;
    EXPECT_EQ(RowOf(snap, id, true), expected) << "peer " << id;
  }
  // Ring queries: ownership and clockwise order statistics.
  for (int i = 0; i < 64; ++i) {
    const KeyId probe = KeyId::FromUnit(i / 64.0);
    const KeyId to = KeyId::FromUnit(i / 64.0 + 0.3);
    EXPECT_EQ(live.OwnerOf(probe), frozen.OwnerOf(probe));
    EXPECT_EQ(live.ring().CountInSegment(probe, to),
              frozen.ring().CountInSegment(probe, to));
    EXPECT_EQ(live.ring().NthInSegment(probe, to, 3),
              frozen.ring().NthInSegment(probe, to, 3));
    EXPECT_EQ(live.ring().SuccessorOfKey(probe),
              frozen.ring().SuccessorOfKey(probe));
  }
}

TEST(TopologySnapshotTest, ViewOverSnapshotMatchesIntactNetwork) {
  const Network net = LinkedNetwork(300, 42);
  ExpectViewsAgree(net, TopologySnapshot(net));
}

TEST(TopologySnapshotTest, ViewOverSnapshotMatchesCrashedNetwork) {
  Network net = LinkedNetwork(300, 42);
  // Crashes leave dangling out-links to dead peers; the snapshot must
  // preserve them (routers discover them as dead probes).
  Rng rng(7);
  ASSERT_TRUE(CrashFraction(&net, 0.25, &rng).ok());
  ExpectViewsAgree(net, TopologySnapshot(net));
}

/// Peer-table + ring structural equality, field by field.
void ExpectStructurallyEqual(const Network& net, const Network& restored) {
  ASSERT_EQ(net.size(), restored.size());
  ASSERT_EQ(net.alive_count(), restored.alive_count());
  const auto to_vec = [](PeerSpan span) {
    return std::vector<PeerId>(span.begin(), span.end());
  };
  for (PeerId id = 0; id < net.size(); ++id) {
    EXPECT_EQ(net.key(id), restored.key(id)) << "peer " << id;
    EXPECT_EQ(net.caps(id).max_in, restored.caps(id).max_in)
        << "peer " << id;
    EXPECT_EQ(net.caps(id).max_out, restored.caps(id).max_out)
        << "peer " << id;
    EXPECT_EQ(net.alive(id), restored.alive(id)) << "peer " << id;
    EXPECT_EQ(to_vec(net.OutLinks(id)), to_vec(restored.OutLinks(id)))
        << "peer " << id;
    EXPECT_EQ(to_vec(net.InLinks(id)), to_vec(restored.InLinks(id)))
        << "peer " << id;
    EXPECT_EQ(net.in_degree(id), restored.in_degree(id)) << "peer " << id;
  }
  for (size_t pos = 0; pos < net.ring().size(); ++pos) {
    EXPECT_EQ(net.ring().at(pos).id, restored.ring().at(pos).id)
        << "ring position " << pos;
    EXPECT_EQ(net.ring().at(pos).key_raw, restored.ring().at(pos).key_raw)
        << "ring position " << pos;
  }
}

TEST(TopologySnapshotTest, RestoreIsStructurallyIdentical) {
  Network net = LinkedNetwork(250, 43);
  Rng rng(9);
  ASSERT_TRUE(CrashFraction(&net, 0.1, &rng).ok());
  const TopologySnapshot snap(net);
  Network restored = snap.Restore();
  ExpectStructurallyEqual(net, restored);
  // The restored network mutates independently of the frozen source:
  // crashing it must not disturb the snapshot or a second restore.
  const PeerId victim = restored.AlivePeers().front();
  restored.CrashMany({victim});
  EXPECT_TRUE(snap.alive(victim));
  EXPECT_TRUE(snap.Restore().alive(victim));
}

TEST(TopologySnapshotTest, DeltaRestoreMatchesFullRestoreAfterCrashes) {
  // snapshot + crash set, restored through the journaled delta path,
  // must be structurally identical to a fresh full Restore() — the
  // contract fig2's per-crash-level scratch recycling rides on.
  Network net = LinkedNetwork(250, 44);
  const TopologySnapshot snap(net);
  Network scratch;
  snap.RestoreInto(&scratch);  // First restore: full rebuild, arms journal.
  ExpectStructurallyEqual(net, scratch);
  // Crash an escalating fraction per round; each RestoreInto must heal
  // the scratch back to the frozen state via the journal alone.
  for (const double crash : {0.1, 0.33, 0.05}) {
    Rng rng(static_cast<uint64_t>(crash * 1000) + 17);
    ASSERT_TRUE(CrashFraction(&scratch, crash, &rng).ok());
    snap.RestoreInto(&scratch);
    ExpectStructurallyEqual(net, scratch);
  }
}

TEST(TopologySnapshotTest, DeltaRestoreHealsJoinsAndRewiredLinks) {
  // Scenario-style mutation: crashes AND joins with freshly built
  // links (which append in-links to old peers). The delta restore must
  // drop the joined peers and repair every old peer their links
  // touched.
  Network net = LinkedNetwork(200, 45);
  const TopologySnapshot snap(net);
  Network scratch;
  snap.RestoreInto(&scratch);
  Rng rng(99);
  ASSERT_TRUE(CrashFraction(&scratch, 0.2, &rng).ok());
  KleinbergOverlay overlay;
  for (int j = 0; j < 20; ++j) {
    const PeerId id =
        scratch.Join(KeyId::FromUnit(rng.NextDouble()), DegreeCaps{8, 8});
    ASSERT_TRUE(overlay.BuildLinks(&scratch, id, &rng).ok());
  }
  snap.RestoreInto(&scratch);
  ExpectStructurallyEqual(net, scratch);
}

TEST(TopologySnapshotTest, DeltaRestoreHealsBatchRewire) {
  // The checkpoint-rewiring batch mutators must journal exactly the
  // rows they change: a global ClearAllLongLinks + ApplyLinkPlan cycle
  // on a journaled scratch, followed by RestoreInto, must heal back to
  // the frozen state. A forgotten Touch in either mutator corrupts this
  // silently — the delta path would skip the dirty row.
  Network net = LinkedNetwork(250, 48);
  const TopologySnapshot snap(net);
  Network scratch;
  snap.RestoreInto(&scratch);
  ExpectStructurallyEqual(net, scratch);
  Rng rng(123);
  for (int round = 0; round < 3; ++round) {
    // A full batch rewire, the shape Simulation::RewireAllPeers drives:
    // clear every long link, then apply fresh plans in ring order.
    const std::vector<PeerId> alive = scratch.AlivePeers();
    scratch.ClearAllLongLinks();
    for (PeerId id : alive) {
      std::vector<LinkCandidate> candidates;
      for (int c = 0; c < 6; ++c) {
        LinkCandidate candidate;
        candidate.primary = alive[static_cast<size_t>(
            rng.UniformInt(alive.size()))];
        candidate.alternate = alive[static_cast<size_t>(
            rng.UniformInt(alive.size()))];
        candidates.push_back(candidate);
      }
      scratch.ApplyLinkPlan(id, candidates, /*budget=*/4);
    }
    snap.RestoreInto(&scratch);
    ExpectStructurallyEqual(net, scratch);
  }
}

TEST(TopologySnapshotTest, ClearAllLongLinksMatchesPerPeerClear) {
  // The batched clear must leave the network exactly where per-peer
  // ClearLongLinks calls would — including dangling links to dead
  // peers, which only the owners' rows record.
  Network a = LinkedNetwork(200, 49);
  Rng rng(7);
  ASSERT_TRUE(CrashFraction(&a, 0.2, &rng).ok());
  Network b = TopologySnapshot(a).Restore();
  for (PeerId id : a.AlivePeers()) a.ClearLongLinks(id);
  b.ClearAllLongLinks();
  ExpectStructurallyEqual(a, b);
}

TEST(TopologySnapshotTest, DeltaRestoreFallsBackAcrossSnapshots) {
  // A scratch restored from snapshot A must be fully rebuilt when
  // restored from snapshot B — the journal only speaks for A.
  Network a = LinkedNetwork(150, 46);
  Network b = LinkedNetwork(180, 47);
  const TopologySnapshot snap_a(a);
  const TopologySnapshot snap_b(b);
  Network scratch;
  snap_a.RestoreInto(&scratch);
  ExpectStructurallyEqual(a, scratch);
  snap_b.RestoreInto(&scratch);
  ExpectStructurallyEqual(b, scratch);
  snap_a.RestoreInto(&scratch);
  ExpectStructurallyEqual(a, scratch);
}

TEST(TopologySnapshotTest, RouteOverSnapshotMatchesLiveNetwork) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Network net = LinkedNetwork(300, seed);
    Rng crash_rng(seed ^ 0xabcdef12345ULL);
    ASSERT_TRUE(CrashFraction(&net, 0.15, &crash_rng).ok());
    const TopologySnapshot snap(net);
    Rng query_rng(seed * 1000003);
    const std::vector<PeerId> alive = net.AlivePeers();
    for (int q = 0; q < 200; ++q) {
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

}  // namespace
}  // namespace oscar
