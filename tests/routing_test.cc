#include <gtest/gtest.h>

#include "churn/churn.h"
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

TEST(GreedyRouteTest, AlwaysReachesOwnerOnHealthyNetwork) {
  Network net = LinkedNetwork(200, 1);
  Rng rng(2);
  const std::vector<PeerId> peers = net.AlivePeers();
  for (int q = 0; q < 200; ++q) {
    const KeyId key = KeyId::FromUnit(rng.NextDouble());
    const PeerId source =
        peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
    const RouteResult route = Route(Routing::kGreedy, net, source, key);
    ASSERT_TRUE(route.success);
    EXPECT_EQ(route.terminal, *net.OwnerOf(key));
    EXPECT_EQ(route.wasted, 0u);  // Nothing is dead.
    EXPECT_EQ(route.path.front(), source);
    EXPECT_EQ(route.path.back(), route.terminal);
    EXPECT_EQ(route.path.size(), static_cast<size_t>(route.hops) + 1);
  }
}

TEST(GreedyRouteTest, RouteToOwnKeyIsFree) {
  Network net = LinkedNetwork(50, 3);
  const PeerId source = net.AlivePeers().front();
  const RouteResult route =
      Route(Routing::kGreedy, net, source, net.key(source));
  EXPECT_TRUE(route.success);
  EXPECT_EQ(route.hops, 0u);
}

TEST(BacktrackingRouteTest, SurvivesHeavyCrashes) {
  Network net = LinkedNetwork(300, 4);
  Rng churn_rng(5);
  ASSERT_TRUE(CrashFraction(&net, 0.33, &churn_rng).ok());
  Rng rng(6);
  const std::vector<PeerId> peers = net.AlivePeers();
  for (int q = 0; q < 200; ++q) {
    const KeyId key = KeyId::FromUnit(rng.NextDouble());
    const PeerId source =
        peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
    const RouteResult route =
        Route(Routing::kBacktracking, net, source, key);
    ASSERT_TRUE(route.success);
    EXPECT_EQ(route.terminal, *net.OwnerOf(key));
  }
}

TEST(BacktrackingRouteTest, ChargesWastedTrafficUnderChurn) {
  Network net = LinkedNetwork(300, 7);
  Rng churn_rng(8);
  ASSERT_TRUE(CrashFraction(&net, 0.33, &churn_rng).ok());
  Rng rng(9);
  const std::vector<PeerId> peers = net.AlivePeers();
  uint64_t wasted = 0;
  for (int q = 0; q < 100; ++q) {
    const PeerId source =
        peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
    wasted += Route(Routing::kBacktracking, net, source,
                    KeyId::FromUnit(rng.NextDouble()))
                  .wasted;
  }
  // A third of all long links dangle; some queries must probe them.
  EXPECT_GT(wasted, 0u);
}

}  // namespace
}  // namespace oscar
