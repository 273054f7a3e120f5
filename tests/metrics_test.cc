#include <gtest/gtest.h>

#include "metrics/degree_metrics.h"
#include "metrics/routing_load_metrics.h"
#include "metrics/topology_metrics.h"
#include "overlay/kleinberg/kleinberg_overlay.h"
#include "routing/router.h"

namespace oscar {
namespace {

Network LinkedNetwork(size_t n, uint64_t seed, uint32_t degree = 8) {
  Network net;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    net.Join(KeyId::FromUnit(rng.NextDouble()), DegreeCaps{degree, degree});
  }
  KleinbergOverlay overlay;
  for (PeerId id : net.AlivePeers()) {
    EXPECT_TRUE(overlay.BuildLinks(&net, id, &rng).ok());
  }
  return net;
}

TEST(DegreeMetricsTest, UtilizationReflectsRealizedInDegree) {
  Network net = LinkedNetwork(200, 1);
  const DegreeLoadReport report = ComputeDegreeLoad(net);
  EXPECT_EQ(report.sorted_relative_load.size(), net.alive_count());
  EXPECT_GT(report.utilization, 0.3);
  EXPECT_LE(report.utilization, 1.0);
  EXPECT_TRUE(std::is_sorted(report.sorted_relative_load.begin(),
                             report.sorted_relative_load.end()));
  EXPECT_GE(report.load_gini, 0.0);
  EXPECT_LE(report.load_gini, 1.0);
}

TEST(DegreeMetricsTest, DownsampleCurveKeepsEndpoints) {
  const std::vector<double> curve = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<double> points = DownsampleCurve(curve, 5);
  ASSERT_EQ(points.size(), 5u);
  EXPECT_DOUBLE_EQ(points.front(), 0.0);
  EXPECT_DOUBLE_EQ(points.back(), 10.0);
  EXPECT_TRUE(DownsampleCurve({}, 5).empty());
  EXPECT_EQ(DownsampleCurve(curve, 1).size(), 1u);
}

TEST(TopologyMetricsTest, HarmonicLinksAreNearlyFlat) {
  Network net = LinkedNetwork(1024, 2, 12);
  const LinkGeometryReport report = ComputeLinkGeometry(net);
  EXPECT_GT(report.total_links, 0u);
  ASSERT_GE(report.octave_counts.size(), 9u);
  // The oracle harmonic construction is the flatness gold standard.
  EXPECT_GE(report.octave_imbalance, 1.0);
  EXPECT_LT(report.octave_imbalance, 1.8);
}

TEST(TopologyMetricsTest, EmptyNetworkIsWellDefined) {
  Network net;
  const LinkGeometryReport report = ComputeLinkGeometry(net);
  EXPECT_EQ(report.total_links, 0u);
  EXPECT_EQ(report.octave_imbalance, 0.0);
}

TEST(RoutingLoadMetricsTest, ChargesForwardersNotTerminals) {
  Network net = LinkedNetwork(200, 3);
  RoutingLoadOptions options;
  options.num_queries = 300;
  Rng rng(4);
  const RoutingLoadReport report =
      EvaluateRoutingLoad(net, Routing::kGreedy, options, &rng);
  EXPECT_GT(report.mean_load, 0.0);
  EXPECT_GT(report.peak_to_mean, 0.0);
  EXPECT_GE(report.budget_relative_gini, 0.0);
}

}  // namespace
}  // namespace oscar
