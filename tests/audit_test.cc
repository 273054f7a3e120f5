// Runtime invariant auditor (common/audit.h + Network::CheckInvariants
// + TopologySnapshot::Validate/CheckRestoreIdentity): healthy networks
// and snapshots must pass at every lifecycle stage — grown, churned,
// rewired, frozen, delta-restored — and each corruption class must be
// DETECTED (via the test-access backdoors; no public API can produce an
// invalid structure, which is exactly why the audits exist). Also pins
// the OSCAR_AUDIT knob semantics: default off, test-settable, and the
// audited pipelines byte-identical to unaudited ones.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "churn/churn.h"
#include "common/audit.h"
#include "core/experiments.h"
#include "core/simulation.h"
#include "core/topology_snapshot.h"
#include "overlay/kleinberg/kleinberg_overlay.h"
#include "overlay/oscar/oscar_overlay.h"

namespace oscar {

// Backdoors into the audited classes' private state, friended by the
// classes so corruption scenarios are constructible at all.
struct RingTestAccess {
  static void SetPos(Ring* ring, PeerId id, uint32_t pos) {
    ring->pos_[id] = pos;
  }
};

struct NetworkTestAccess {
  static void FlipAlive(Network* net, PeerId id) {
    net->alive_[id] = net->alive_[id] ? 0 : 1;
  }
  static void BumpOutCount(Network* net, PeerId id) { ++net->out_count_[id]; }
  static void BumpInCount(Network* net, PeerId id) { ++net->in_count_[id]; }
  static void SetDanglingOut(Network* net, PeerId id, uint32_t count) {
    net->dangling_out_[id] = count;
  }
  static void SetOutSlabEntry(Network* net, PeerId id, size_t slot,
                              PeerId value) {
    net->out_slab_[net->out_base_[id] + slot] = value;
  }
  static void CorruptKey(Network* net, PeerId id) {
    net->keys_[id] = KeyId::FromRaw(net->keys_[id].raw + 1);
  }
  static uint32_t out_count(const Network& net, PeerId id) {
    return net.out_count_[id];
  }
  static void SetRingPos(Network* net, PeerId id, uint32_t pos) {
    RingTestAccess::SetPos(&net->ring_, id, pos);
  }
};

struct TopologySnapshotTestAccess {
  static void FlipAlive(TopologySnapshot* snap, PeerId id) {
    snap->alive_[id] = snap->alive_[id] ? 0 : 1;
  }
  static void CorruptOutEdge(TopologySnapshot* snap, size_t index,
                             PeerId value) {
    snap->out_edges_[index] = value;
  }
  static void BreakOffsetMonotonicity(TopologySnapshot* snap, PeerId id) {
    ++snap->out_offsets_[id];
  }
  static void BumpDanglingOut(TopologySnapshot* snap, PeerId id) {
    ++snap->dangling_out_[id];
  }
  static void CorruptRingPos(TopologySnapshot* snap, PeerId id) {
    RingTestAccess::SetPos(&snap->ring_, id, snap->ring_.PosOf(id) + 1);
  }
};

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

// A peer that actually holds at least one out-link to an ALIVE target
// (corruption targets need live state to corrupt).
PeerId PeerWithLiveOutLink(const Network& net) {
  for (PeerId id = 0; id < net.size(); ++id) {
    if (!net.alive(id)) continue;
    for (PeerId target : net.OutLinks(id)) {
      if (net.alive(target)) return id;
    }
  }
  ADD_FAILURE() << "no peer with a live out-link";
  return 0;
}

TEST(AuditKnob, DefaultsOffAndIsTestSettable) {
  // The suite runs without OSCAR_AUDIT in the environment (ctest does
  // not set it), so the cached decision must be off by default...
  // unless an operator deliberately exported it for an audited suite
  // run, which is supported and should not fail the test.
  const char* env = std::getenv("OSCAR_AUDIT");
  const bool env_on =
      env != nullptr && (std::string(env) == "1" || std::string(env) == "true" ||
                         std::string(env) == "on");
  EXPECT_EQ(AuditEnabled(), env_on);
  const bool previous = SetAuditEnabledForTest(true);
  EXPECT_TRUE(AuditEnabled());
  SetAuditEnabledForTest(previous);
  EXPECT_EQ(AuditEnabled(), env_on);
}

TEST(NetworkInvariants, HoldAcrossLifecycle) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Network net = LinkedNetwork(200, seed);
    EXPECT_TRUE(net.CheckInvariants().ok()) << "grown, seed " << seed;

    Rng rng(seed ^ 0xfeed);
    auto crashed = CrashFraction(&net, 0.15, &rng);
    ASSERT_TRUE(crashed.ok());
    EXPECT_TRUE(net.CheckInvariants().ok()) << "churned, seed " << seed;

    for (PeerId id : net.AlivePeers()) net.PruneDeadLinks(id);
    EXPECT_TRUE(net.CheckInvariants().ok()) << "pruned, seed " << seed;

    net.ClearAllLongLinks();
    EXPECT_TRUE(net.CheckInvariants().ok()) << "cleared, seed " << seed;
  }
}

TEST(NetworkInvariants, HoldAfterGrowthWithRewiresAndBatchedJoins) {
  for (const uint32_t join_batch : {0u, 16u}) {
    GrowthConfig config;
    config.target_size = 300;
    config.queries_per_checkpoint = 1;
    config.seed = 42;
    auto keys = MakeKeyDistribution("uniform");
    auto degrees = MakePaperDegreeDistribution("realistic");
    ASSERT_TRUE(keys.ok());
    ASSERT_TRUE(degrees.ok());
    config.key_distribution = std::move(keys).value();
    config.degree_distribution = std::move(degrees).value();
    config.overlay = OscarFactory()();
    config.join_batch = join_batch;
    Simulation sim(std::move(config));
    ASSERT_TRUE(sim.Run().ok());
    EXPECT_TRUE(sim.network().CheckInvariants().ok())
        << "join_batch " << join_batch;
  }
}

TEST(NetworkInvariants, DetectDegreeCounterDrift) {
  Network net = LinkedNetwork(60, 42);
  const PeerId victim = PeerWithLiveOutLink(net);
  NetworkTestAccess::BumpOutCount(&net, victim);
  const Status status = net.CheckInvariants();
  EXPECT_FALSE(status.ok());
}

TEST(NetworkInvariants, DetectInCountDrift) {
  Network net = LinkedNetwork(60, 42);
  // Inflating an in-counter fabricates an in-link entry (whatever slab
  // garbage sits past the live prefix) with no matching out-link.
  const PeerId victim = PeerWithLiveOutLink(net);
  const PeerId target = net.OutLinks(victim)[0];
  NetworkTestAccess::BumpInCount(&net, target);
  EXPECT_FALSE(net.CheckInvariants().ok());
}

// An alive peer with at least one out-link to a dead target.
PeerId PeerWithDanglingOutLink(const Network& net) {
  for (PeerId id : net.AlivePeers()) {
    if (net.dangling_out(id) > 0) return id;
  }
  ADD_FAILURE() << "no peer with a dangling out-link";
  return 0;
}

TEST(NetworkInvariants, DetectDanglingCountDrift) {
  Network net = LinkedNetwork(80, 42);
  Rng rng(7);
  ASSERT_TRUE(CrashFraction(&net, 0.2, &rng).ok());
  ASSERT_TRUE(net.CheckInvariants().ok());
  // A missed crash bump: a dead target the count does not know about.
  const PeerId holder = PeerWithDanglingOutLink(net);
  const uint32_t dangling = net.dangling_out(holder);
  NetworkTestAccess::SetDanglingOut(&net, holder, 0);
  EXPECT_FALSE(net.CheckInvariants().ok()) << "count below the dead targets";
  // A missed prune reset: a count on a row with no dead target.
  NetworkTestAccess::SetDanglingOut(&net, holder, dangling);
  net.PruneDeadLinks(holder);
  ASSERT_TRUE(net.CheckInvariants().ok());
  NetworkTestAccess::SetDanglingOut(&net, holder, 1);
  EXPECT_FALSE(net.CheckInvariants().ok()) << "count above the dead targets";
}

TEST(NetworkInvariants, DetectReciprocityBreak) {
  Network net = LinkedNetwork(60, 43);
  // Redirect an out-link at a different alive target without updating
  // the target's in row: reciprocity must flag one side or the other.
  const PeerId victim = PeerWithLiveOutLink(net);
  const PeerSpan out = net.OutLinks(victim);
  PeerId other = 0;
  for (PeerId id = 0; id < net.size(); ++id) {
    if (id != victim && net.alive(id) &&
        std::find(out.begin(), out.end(), id) == out.end()) {
      other = id;
      break;
    }
  }
  NetworkTestAccess::SetOutSlabEntry(&net, victim, 0, other);
  EXPECT_FALSE(net.CheckInvariants().ok());
}

TEST(NetworkInvariants, DetectSelfLink) {
  Network net = LinkedNetwork(60, 44);
  const PeerId victim = PeerWithLiveOutLink(net);
  NetworkTestAccess::SetOutSlabEntry(&net, victim, 0, victim);
  EXPECT_FALSE(net.CheckInvariants().ok());
}

TEST(NetworkInvariants, DetectRingLivenessMismatch) {
  Network net = LinkedNetwork(60, 45);
  // Flip a peer dead without removing it from the ring: either the
  // ring-size count or the dead-peer-on-ring check must fire.
  NetworkTestAccess::FlipAlive(&net, net.AlivePeers().front());
  EXPECT_FALSE(net.CheckInvariants().ok());
}

TEST(NetworkInvariants, DetectRingKeyMismatch) {
  Network net = LinkedNetwork(60, 42);
  NetworkTestAccess::CorruptKey(&net, net.AlivePeers().front());
  EXPECT_FALSE(net.CheckInvariants().ok());
}

TEST(NetworkInvariants, DetectRingPosDrift) {
  Network net = LinkedNetwork(60, 43);
  const PeerId victim = net.AlivePeers().front();
  NetworkTestAccess::SetRingPos(&net, victim, net.ring().PosOf(victim) + 1);
  EXPECT_FALSE(net.CheckInvariants().ok()) << "ring_pos drift";
}

TEST(NetworkInvariants, DetectDeadPeerRingPos) {
  Network net = LinkedNetwork(60, 44);
  const PeerId victim = net.AlivePeers().front();
  net.CrashMany({victim});
  ASSERT_TRUE(net.CheckInvariants().ok());
  NetworkTestAccess::SetRingPos(&net, victim, 0);
  EXPECT_FALSE(net.CheckInvariants().ok()) << "dead peer ring position";
}

TEST(SnapshotValidate, PassesOnHealthySnapshots) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Network net = LinkedNetwork(200, seed);
    EXPECT_TRUE(TopologySnapshot(net).Validate().ok()) << "intact " << seed;
    Rng rng(seed);
    ASSERT_TRUE(CrashFraction(&net, 0.2, &rng).ok());
    // Frozen mid-churn: dangling out-edges to dead peers are legal.
    EXPECT_TRUE(TopologySnapshot(net).Validate().ok()) << "crashed " << seed;
  }
}

TEST(SnapshotValidate, DetectsEachCorruptionClass) {
  Network net = LinkedNetwork(80, 42);
  {
    TopologySnapshot snap(net);
    TopologySnapshotTestAccess::FlipAlive(&snap, net.AlivePeers().front());
    EXPECT_FALSE(snap.Validate().ok()) << "liveness flip";
  }
  {
    TopologySnapshot snap(net);
    TopologySnapshotTestAccess::CorruptOutEdge(
        &snap, 0, static_cast<PeerId>(net.size() + 1000));
    EXPECT_FALSE(snap.Validate().ok()) << "edge beyond peer table";
  }
  {
    TopologySnapshot snap(net);
    TopologySnapshotTestAccess::BreakOffsetMonotonicity(&snap, 1);
    EXPECT_FALSE(snap.Validate().ok()) << "offset monotonicity";
  }
  {
    TopologySnapshot snap(net);
    TopologySnapshotTestAccess::CorruptRingPos(&snap,
                                               net.AlivePeers().front());
    EXPECT_FALSE(snap.Validate().ok()) << "ring_pos drift";
  }
  {
    TopologySnapshot snap(net);
    TopologySnapshotTestAccess::BumpDanglingOut(&snap,
                                                PeerWithLiveOutLink(net));
    EXPECT_FALSE(snap.Validate().ok()) << "dangling count drift";
  }
}

TEST(RestoreIdentity, DeltaRestoreMatchesFullRestore) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Network net = LinkedNetwork(150, seed);
    const TopologySnapshot snap(net);
    Network scratch;
    snap.RestoreInto(&scratch);  // Full rebuild.
    EXPECT_TRUE(snap.CheckRestoreIdentity(scratch).ok()) << "full " << seed;

    // Mutate (churn + prune + fresh joins), then delta-restore: the
    // journal path must heal back to full-restore identity.
    Rng rng(seed ^ 0xabcdef);
    ASSERT_TRUE(CrashFraction(&scratch, 0.25, &rng).ok());
    for (PeerId id : scratch.AlivePeers()) scratch.PruneDeadLinks(id);
    scratch.Join(KeyId::FromUnit(rng.NextDouble()), DegreeCaps{4, 4});
    snap.RestoreInto(&scratch);  // Delta repair.
    EXPECT_TRUE(snap.CheckRestoreIdentity(scratch).ok()) << "delta " << seed;
    EXPECT_TRUE(scratch.CheckInvariants().ok()) << "restored net " << seed;
  }
}

TEST(RestoreIdentity, DetectsDivergence) {
  Network net = LinkedNetwork(80, 42);
  const TopologySnapshot snap(net);
  Network scratch;
  snap.RestoreInto(&scratch);
  const PeerId victim = PeerWithLiveOutLink(scratch);
  NetworkTestAccess::SetOutSlabEntry(&scratch, victim, 0, victim);
  EXPECT_FALSE(snap.CheckRestoreIdentity(scratch).ok());
}

TEST(RestoreIdentity, DetectsDanglingCountDivergence) {
  Network net = LinkedNetwork(80, 44);
  Rng rng(9);
  ASSERT_TRUE(CrashFraction(&net, 0.2, &rng).ok());
  const TopologySnapshot snap(net);
  Network scratch;
  snap.RestoreInto(&scratch);
  ASSERT_TRUE(snap.CheckRestoreIdentity(scratch).ok());
  // Same rows, a stale count: what a delta restore leaves when a crash
  // forgets to journal the holders of the victim's in-links.
  const PeerId holder = PeerWithDanglingOutLink(scratch);
  NetworkTestAccess::SetDanglingOut(&scratch, holder, 0);
  EXPECT_FALSE(snap.CheckRestoreIdentity(scratch).ok());
}

TEST(RestoreIdentity, DetectsRingPosDivergence) {
  Network net = LinkedNetwork(80, 43);
  const TopologySnapshot snap(net);
  Network scratch;
  snap.RestoreInto(&scratch);
  // Same entries, one stale position: the index is compared too.
  const PeerId victim = scratch.AlivePeers().back();
  NetworkTestAccess::SetRingPos(&scratch, victim, 0);
  EXPECT_FALSE(snap.CheckRestoreIdentity(scratch).ok());
}

// The audited pipelines must not perturb results: the audit reads
// state, never draws from any stream. Growing the same config with
// audits on and off must produce byte-identical topologies.
TEST(AuditTransparency, AuditedGrowthIsByteIdentical) {
  const auto grow = [](bool audited) {
    const bool previous = SetAuditEnabledForTest(audited);
    GrowthConfig config;
    config.target_size = 250;
    config.queries_per_checkpoint = 1;
    config.seed = 42;
    auto keys = MakeKeyDistribution("uniform");
    auto degrees = MakePaperDegreeDistribution("realistic");
    EXPECT_TRUE(keys.ok());
    EXPECT_TRUE(degrees.ok());
    config.key_distribution = std::move(keys).value();
    config.degree_distribution = std::move(degrees).value();
    config.overlay = OscarFactory()();
    config.join_batch = 8;
    Simulation sim(std::move(config));
    EXPECT_TRUE(sim.Run().ok());
    const TopologySnapshot snap(sim.network());
    SetAuditEnabledForTest(previous);
    return snap;
  };
  const TopologySnapshot with_audit = grow(true);
  const TopologySnapshot without_audit = grow(false);
  ASSERT_EQ(with_audit.size(), without_audit.size());
  for (PeerId id = 0; id < with_audit.size(); ++id) {
    ASSERT_EQ(with_audit.key(id), without_audit.key(id)) << "peer " << id;
    const PeerSpan a = with_audit.OutLinks(id);
    const PeerSpan b = without_audit.OutLinks(id);
    ASSERT_EQ(a.size(), b.size()) << "peer " << id;
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin())) << "peer " << id;
  }
}

}  // namespace
}  // namespace oscar
