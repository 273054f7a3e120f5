#include <gtest/gtest.h>

#include <vector>

#include "churn/churn.h"
#include "common/stats.h"
#include "overlay/kleinberg/kleinberg_overlay.h"
#include "routing/router.h"
#include "sim/latency_model.h"
#include "store/replicated_store.h"

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

TEST(ReplicatedStoreTest, PlacesOwnerPlusSuccessors) {
  Network net = LinkedNetwork(50, 1);
  ReplicatedStore store(3);
  Rng rng(2);
  ASSERT_TRUE(store.Put(net, KeyId::FromUnit(0.37), "v").ok());
  const AvailabilityReport report = store.CheckAvailability(net);
  EXPECT_EQ(report.total_items, 1u);
  EXPECT_EQ(report.items_with_replica, 1u);
  EXPECT_EQ(report.items_at_owner, 1u);
  EXPECT_DOUBLE_EQ(report.availability(), 1.0);
  EXPECT_DOUBLE_EQ(report.owner_hit_rate(), 1.0);
}

TEST(ReplicatedStoreTest, SurvivesCrashesByRedundancyLaw) {
  Network net = LinkedNetwork(400, 3);
  ReplicatedStore r1(1);
  ReplicatedStore r3(3);
  Rng rng(4);
  for (int i = 0; i < 800; ++i) {
    const KeyId key = KeyId::FromUnit(rng.NextDouble());
    ASSERT_TRUE(r1.Put(net, key, "x").ok());
    ASSERT_TRUE(r3.Put(net, key, "x").ok());
  }
  ASSERT_TRUE(CrashFraction(&net, 0.33, &rng).ok());
  const double a1 = r1.CheckAvailability(net).availability();
  const double a3 = r3.CheckAvailability(net).availability();
  EXPECT_NEAR(a1, 0.67, 0.08);   // ~1 - f.
  EXPECT_GT(a3, 0.92);           // ~1 - f^3.
  EXPECT_GT(a3, a1 + 0.2);
}

TEST(ReplicatedStoreTest, ReReplicateRestoresOwnerHitsAndCountsLosses) {
  Network net = LinkedNetwork(300, 5);
  ReplicatedStore store(2);
  Rng rng(6);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(store.Put(net, KeyId::FromUnit(rng.NextDouble()), "x").ok());
  }
  ASSERT_TRUE(CrashFraction(&net, 0.33, &rng).ok());
  const AvailabilityReport before = store.CheckAvailability(net);
  const size_t lost = store.ReReplicate(net);
  const AvailabilityReport after = store.CheckAvailability(net);
  // Lost items stay lost (availability unchanged) but every surviving
  // item is back at its current owner.
  EXPECT_EQ(after.items_with_replica, before.items_with_replica);
  EXPECT_EQ(after.items_at_owner, after.items_with_replica);
  EXPECT_EQ(lost, before.total_items - before.items_with_replica);
}

TEST(LatencyModelTest, PricesRoutesAndTimeouts) {
  Network healthy = LinkedNetwork(300, 7);
  Rng rng(8);
  const LatencyEvaluation eval =
      EvaluateLatency(healthy, Routing::kGreedy, 200, &rng);
  EXPECT_GT(eval.mean_ms, 0.0);
  EXPECT_GE(eval.p95_ms, eval.p50_ms);
  EXPECT_DOUBLE_EQ(eval.success_rate, 1.0);
}

TEST(LatencyModelTest, DelaysAreAPureFunctionOfTheKey) {
  // The same key always gets the same delay, and the delays follow the
  // model's lognormal with a 25 ms median.
  Rng rng(9);
  std::vector<double> delays;
  for (int i = 0; i < 4000; ++i) {
    const KeyId key = KeyId::FromRaw(rng.Next());
    const double delay = LatencyModel::DelayForKey(key);
    EXPECT_DOUBLE_EQ(delay, LatencyModel::DelayForKey(key));
    EXPECT_GT(delay, 0.0);
    delays.push_back(delay);
  }
  EXPECT_NEAR(Percentile(delays, 50.0), 25.0, 25.0 * 0.04);
}

}  // namespace
}  // namespace oscar
