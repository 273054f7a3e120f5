#include <gtest/gtest.h>

#include "overlay/chord/chord_overlay.h"
#include "overlay/kleinberg/kleinberg_overlay.h"
#include "overlay/maintenance.h"
#include "overlay/mercury/mercury_overlay.h"
#include "overlay/oscar/oscar_overlay.h"
#include "churn/churn.h"
#include "sampling/oracle_sampler.h"

namespace oscar {
namespace {

Network UniformNetwork(size_t n, uint64_t seed, uint32_t degree = 8) {
  Network net;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    net.Join(KeyId::FromUnit(rng.NextDouble()), DegreeCaps{degree, degree});
  }
  return net;
}

TEST(OscarPartitionerTest, PartitionsCoverTheRingAndHalvePopulation) {
  Network net = UniformNetwork(512, 1);
  OscarOptions options;
  options.sampler = std::make_shared<OracleSegmentSampler>();
  options.samples_per_median = 17;
  OscarOverlay overlay(options);
  Rng rng(2);
  const PeerId u = net.AlivePeers().front();
  const auto partitions = overlay.partitioner().ComputePartitions(net, u, &rng);
  // log2(512) = 9 partitions, farthest first.
  ASSERT_GE(partitions.size(), 7u);
  ASSERT_LE(partitions.size(), 9u);
  size_t covered = 0;
  for (const RingSegment& segment : partitions) {
    covered += net.ring().CountInSegment(segment.from, segment.to);
  }
  EXPECT_EQ(covered, net.alive_count() - 1);  // Everyone but u.
  // The first partition holds roughly half the population.
  const size_t first =
      net.ring().CountInSegment(partitions[0].from, partitions[0].to);
  EXPECT_GT(first, net.alive_count() / 4);
  EXPECT_LT(first, 3 * net.alive_count() / 4);
}

TEST(OscarOverlayTest, BuildLinksFillsBudgetAndRespectsCaps) {
  Network net = UniformNetwork(256, 3);
  OscarOverlay overlay;
  Rng rng(4);
  for (PeerId id : net.AlivePeers()) {
    ASSERT_TRUE(overlay.BuildLinks(&net, id, &rng).ok());
  }
  size_t total_out = 0;
  for (PeerId id : net.AlivePeers()) {
    EXPECT_LE(net.OutLinks(id).size(), net.caps(id).max_out);
    EXPECT_LE(net.in_degree(id), net.caps(id).max_in);
    total_out += net.OutLinks(id).size();
  }
  // The vast majority of the budget gets placed on a uniform network.
  EXPECT_GT(total_out, net.alive_count() * 8 * 7 / 10);
  EXPECT_GT(overlay.sampling_steps(), 0u);
}

TEST(OscarOverlayTest, BuildLinksIsATopUp) {
  Network net = UniformNetwork(128, 5);
  OscarOverlay overlay;
  Rng rng(6);
  const PeerId u = net.AlivePeers().front();
  ASSERT_TRUE(overlay.BuildLinks(&net, u, &rng).ok());
  const PeerSpan out = net.OutLinks(u);
  const std::vector<PeerId> before(out.begin(), out.end());
  ASSERT_TRUE(overlay.BuildLinks(&net, u, &rng).ok());
  const PeerSpan after = net.OutLinks(u);
  EXPECT_EQ(std::vector<PeerId>(after.begin(), after.end()),
            before);  // Already full: no change.
}

TEST(BaselineOverlaysTest, BuildWithinCaps) {
  for (int variant = 0; variant < 3; ++variant) {
    Network net = UniformNetwork(200, 7 + static_cast<uint64_t>(variant));
    Rng rng(8);
    std::shared_ptr<Overlay> overlay;
    if (variant == 0) overlay = std::make_shared<MercuryOverlay>();
    if (variant == 1) overlay = std::make_shared<ChordOverlay>();
    if (variant == 2) overlay = std::make_shared<KleinbergOverlay>();
    for (PeerId id : net.AlivePeers()) {
      ASSERT_TRUE(overlay->BuildLinks(&net, id, &rng).ok());
    }
    size_t linked_peers = 0;
    for (PeerId id : net.AlivePeers()) {
      EXPECT_LE(net.OutLinks(id).size(), net.caps(id).max_out);
      EXPECT_LE(net.in_degree(id), net.caps(id).max_in);
      if (!net.OutLinks(id).empty()) ++linked_peers;
    }
    EXPECT_GT(linked_peers, net.alive_count() / 2) << overlay->name();
  }
}

TEST(MaintainerTest, RepairsDanglingLinksLazily) {
  Network net = UniformNetwork(300, 9);
  auto overlay = std::make_shared<OscarOverlay>();
  Rng rng(10);
  for (PeerId id : net.AlivePeers()) {
    ASSERT_TRUE(overlay->BuildLinks(&net, id, &rng).ok());
  }
  ASSERT_TRUE(CrashFraction(&net, 0.25, &rng).ok());
  Maintainer maintainer(overlay, MaintenanceOptions{});
  auto report = maintainer.RunRound(&net, &rng);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report.value().pruned_links, 0u);
  // After the round no alive peer keeps a dangling link.
  for (PeerId id : net.AlivePeers()) {
    for (PeerId target : net.OutLinks(id)) {
      EXPECT_TRUE(net.alive(target));
    }
  }
}

TEST(MaintainerTest, ValidatesOptions) {
  Network net = UniformNetwork(16, 11);
  Rng rng(12);
  MaintenanceOptions bad;
  bad.proactive_fraction = 1.5;
  Maintainer maintainer(std::make_shared<OscarOverlay>(), bad);
  EXPECT_FALSE(maintainer.RunRound(&net, &rng).ok());
  Maintainer null_overlay(nullptr, MaintenanceOptions{});
  EXPECT_FALSE(null_overlay.RunRound(&net, &rng).ok());
}

}  // namespace
}  // namespace oscar
