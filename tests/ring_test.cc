// Ring-arithmetic edge cases: wrap-around distances, the 1.0 -> 0.0
// seam, and ownership on degenerate (1- and 2-peer) networks.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/key_id.h"
#include "core/network.h"
#include "core/ring.h"
#include "core/rng.h"

namespace oscar {
namespace {

TEST(KeyIdTest, FromUnitRoundTrips) {
  EXPECT_EQ(KeyId::FromUnit(0.0).raw, 0u);
  EXPECT_NEAR(KeyId::FromUnit(0.25).unit(), 0.25, 1e-12);
  EXPECT_NEAR(KeyId::FromUnit(0.999999).unit(), 0.999999, 1e-9);
}

TEST(KeyIdTest, FromUnitWrapsOutOfRangeInputs) {
  EXPECT_NEAR(KeyId::FromUnit(1.25).unit(), 0.25, 1e-12);
  EXPECT_NEAR(KeyId::FromUnit(-0.25).unit(), 0.75, 1e-12);
  // Exactly 1.0 is the same ring position as 0.0.
  EXPECT_EQ(KeyId::FromUnit(1.0).raw, 0u);
}

TEST(KeyIdTest, WrapAroundDistance) {
  const KeyId a = KeyId::FromUnit(0.9);
  const KeyId b = KeyId::FromUnit(0.1);
  // Clockwise from 0.9 crosses the seam: 0.2 of the ring.
  EXPECT_NEAR(static_cast<double>(ClockwiseDistance(a, b)) /
                  18446744073709551616.0,
              0.2, 1e-9);
  // Shortest way is the same 0.2, not the 0.8 detour.
  EXPECT_NEAR(static_cast<double>(RingDistance(a, b)) /
                  18446744073709551616.0,
              0.2, 1e-9);
  EXPECT_EQ(RingDistance(a, b), RingDistance(b, a));
  EXPECT_EQ(RingDistance(a, a), 0u);
}

TEST(KeyIdTest, SegmentMembershipAcrossSeam) {
  const KeyId from = KeyId::FromUnit(0.9);
  const KeyId to = KeyId::FromUnit(0.1);
  EXPECT_TRUE(InClockwiseSegment(KeyId::FromUnit(0.95), from, to));
  EXPECT_TRUE(InClockwiseSegment(KeyId::FromUnit(0.05), from, to));
  EXPECT_TRUE(InClockwiseSegment(from, from, to));  // Half-open: from in.
  EXPECT_FALSE(InClockwiseSegment(to, from, to));   // to out.
  EXPECT_FALSE(InClockwiseSegment(KeyId::FromUnit(0.5), from, to));
}

TEST(RingTest, CountInSegmentAcrossSeam) {
  Ring ring;
  // Peers at 0.05, 0.5, 0.95.
  ring.Insert(KeyId::FromUnit(0.05), 0);
  ring.Insert(KeyId::FromUnit(0.5), 1);
  ring.Insert(KeyId::FromUnit(0.95), 2);
  EXPECT_EQ(ring.CountInSegment(KeyId::FromUnit(0.9), KeyId::FromUnit(0.1)),
            2u);
  EXPECT_EQ(ring.CountInSegment(KeyId::FromUnit(0.1), KeyId::FromUnit(0.9)),
            1u);
  // Full sweep from any point counts everyone ahead of it.
  EXPECT_EQ(ring.CountInSegment(KeyId::FromUnit(0.0), KeyId::FromUnit(0.999)),
            3u);
  // Empty segment convention.
  const KeyId point = KeyId::FromUnit(0.3);
  EXPECT_EQ(ring.CountInSegment(point, point), 0u);
}

TEST(RingTest, NthInSegmentWrapsTheSeam) {
  Ring ring;
  ring.Insert(KeyId::FromUnit(0.05), 0);
  ring.Insert(KeyId::FromUnit(0.5), 1);
  ring.Insert(KeyId::FromUnit(0.95), 2);
  const KeyId from = KeyId::FromUnit(0.9);
  const KeyId to = KeyId::FromUnit(0.1);
  ASSERT_TRUE(ring.NthInSegment(from, to, 0).has_value());
  EXPECT_EQ(*ring.NthInSegment(from, to, 0), 2u);
  ASSERT_TRUE(ring.NthInSegment(from, to, 1).has_value());
  EXPECT_EQ(*ring.NthInSegment(from, to, 1), 0u);
  EXPECT_FALSE(ring.NthInSegment(from, to, 2).has_value());
}

TEST(NetworkTest, OwnerOfOnePeerNetwork) {
  Network net;
  const PeerId only = net.Join(KeyId::FromUnit(0.5), DegreeCaps{4, 4});
  // The single peer owns every key, wherever it falls.
  for (double u : {0.0, 0.25, 0.5, 0.75, 0.999}) {
    ASSERT_TRUE(net.OwnerOf(KeyId::FromUnit(u)).has_value());
    EXPECT_EQ(*net.OwnerOf(KeyId::FromUnit(u)), only);
  }
  // And has no ring neighbors.
  EXPECT_FALSE(net.SuccessorOf(only).has_value());
  EXPECT_FALSE(net.PredecessorOf(only).has_value());
}

TEST(NetworkTest, OwnerOfTwoPeerNetworkSplitsByDistance) {
  Network net;
  const PeerId at_20 = net.Join(KeyId::FromUnit(0.2), DegreeCaps{4, 4});
  const PeerId at_80 = net.Join(KeyId::FromUnit(0.8), DegreeCaps{4, 4});
  // Closest-peer ownership: 0.4 is nearer to 0.2; 0.6 nearer to 0.8;
  // 0.99 wraps around to be nearest to 0.2? No: |0.99-0.8| = 0.19,
  // wrap distance to 0.2 is 0.21 -> owner is the peer at 0.8.
  EXPECT_EQ(*net.OwnerOf(KeyId::FromUnit(0.4)), at_20);
  EXPECT_EQ(*net.OwnerOf(KeyId::FromUnit(0.6)), at_80);
  EXPECT_EQ(*net.OwnerOf(KeyId::FromUnit(0.99)), at_80);
  EXPECT_EQ(*net.OwnerOf(KeyId::FromUnit(0.05)), at_20);
  // Each is the other's successor and predecessor.
  EXPECT_EQ(*net.SuccessorOf(at_20), at_80);
  EXPECT_EQ(*net.PredecessorOf(at_20), at_80);
}

TEST(NetworkTest, OwnerOfEmptyNetworkIsNull) {
  Network net;
  EXPECT_FALSE(net.OwnerOf(KeyId::FromUnit(0.5)).has_value());
}

/// Checks Ring::OwnsAt against OwnerOf at every index for every key
/// where ownership can flip: each entry's key and its +-1, the points
/// around the midpoint of every clockwise gap (the successor wins the
/// exact tie), each key's antipode, and both ends of the key space.
void ExpectOwnsAtMatchesOwnerOf(const Ring& ring) {
  ASSERT_FALSE(ring.empty());
  std::vector<uint64_t> probes = {0, 1, UINT64_MAX - 1, UINT64_MAX,
                                  uint64_t{1} << 63};
  const size_t n = ring.size();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t key = ring.at(i).key_raw;
    const uint64_t gap = ring.at((i + 1) % n).key_raw - key;  // Wraps.
    const uint64_t mid = key + gap / 2;
    const uint64_t antipode = key + (uint64_t{1} << 63);
    for (uint64_t probe : {key - 1, key, key + 1, mid - 1, mid, mid + 1,
                           key + (gap + 1) / 2, antipode - 1, antipode,
                           antipode + 1}) {
      probes.push_back(probe);
    }
  }
  for (uint64_t raw : probes) {
    const KeyId key = KeyId::FromRaw(raw);
    const PeerId owner = *ring.OwnerOf(key);
    size_t owning = 0;
    for (size_t i = 0; i < n; ++i) {
      const bool owns = ring.OwnsAt(i, key);
      EXPECT_EQ(owns, owner == ring.at(i).id)
          << "index " << i << " of " << n << ", key " << raw;
      owning += owns ? 1 : 0;
    }
    EXPECT_EQ(owning, 1u) << "key " << raw;
  }
}

Ring RingOf(const std::vector<uint64_t>& keys) {
  Ring ring;
  for (size_t i = 0; i < keys.size(); ++i) {
    ring.Insert(KeyId::FromRaw(keys[i]), static_cast<PeerId>(i));
  }
  return ring;
}

TEST(RingTest, OwnsAtMatchesOwnerOfOnTinyRings) {
  for (const std::vector<uint64_t>& keys : std::vector<std::vector<uint64_t>>{
           {0}, {UINT64_MAX}, {uint64_t{1} << 62},  // One entry.
           {0, UINT64_MAX}, {10, 20}, {5, 5},       // Two entries.
           {0, uint64_t{1} << 63},                  // Exact antipodes.
           {1, 2, 3}, {0, 1, UINT64_MAX},           // Three, at the seam.
           {7, 7, 7}, {7, 7, 1000}, {UINT64_MAX, UINT64_MAX, 0},
           {0, uint64_t{3} << 62, uint64_t{3} << 62}}) {
    SCOPED_TRACE(testing::Message() << "ring of " << keys.size());
    ExpectOwnsAtMatchesOwnerOf(RingOf(keys));
  }
}

TEST(RingTest, OwnsAtMatchesOwnerOfOnGrownRingWithDuplicateKeys) {
  Rng rng(21);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 400; ++i) keys.push_back(rng.Next());
  // Runs of equal keys, including one straddling the seam.
  for (int copy = 0; copy < 3; ++copy) {
    keys.push_back(keys[5]);
    keys.push_back(keys[77]);
    keys.push_back(0);
    keys.push_back(UINT64_MAX);
  }
  ExpectOwnsAtMatchesOwnerOf(RingOf(keys));
}

TEST(RingTest, OwnsAtMatchesOwnerOfOnNetworkRing) {
  Network net;
  Rng rng(22);
  for (int i = 0; i < 300; ++i) {
    net.Join(KeyId::FromUnit(rng.NextDouble()), DegreeCaps{4, 4});
  }
  ExpectOwnsAtMatchesOwnerOf(net.ring());
}

TEST(NetworkTest, LongLinkCapsEnforced) {
  Network net;
  const PeerId a = net.Join(KeyId::FromUnit(0.1), DegreeCaps{1, 2});
  const PeerId b = net.Join(KeyId::FromUnit(0.5), DegreeCaps{1, 2});
  const PeerId c = net.Join(KeyId::FromUnit(0.9), DegreeCaps{1, 2});
  EXPECT_FALSE(net.AddLongLink(a, a));       // Self.
  EXPECT_TRUE(net.AddLongLink(a, b));
  EXPECT_FALSE(net.AddLongLink(a, b));       // Duplicate.
  EXPECT_FALSE(net.AddLongLink(c, b));       // b's in-cap (1) full.
  EXPECT_TRUE(net.AddLongLink(a, c));
  EXPECT_FALSE(net.AddLongLink(a, c));       // a's out-cap (2) full.
  EXPECT_EQ(net.RemainingOutBudget(a), 0u);
  net.ClearLongLinks(a);
  EXPECT_EQ(net.RemainingOutBudget(a), 2u);
  EXPECT_EQ(net.in_degree(b), 0u);           // In-degree released.
}

}  // namespace
}  // namespace oscar
