#include <gtest/gtest.h>

#include <cstdlib>

#include "core/experiments.h"

namespace oscar {
namespace {

class ScaleFromEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("OSCAR_BENCH_SCALE");
    unsetenv("OSCAR_BENCH_SIZE");
    unsetenv("OSCAR_BENCH_QUERIES");
    unsetenv("OSCAR_BENCH_SEED");
  }
};

TEST_F(ScaleFromEnvTest, DefaultsToSmall) {
  const ExperimentScale scale = ScaleFromEnv();
  EXPECT_EQ(scale.target_size, 600u);
  EXPECT_EQ(scale.seed, 42u);
  ASSERT_FALSE(scale.checkpoints.empty());
  EXPECT_EQ(scale.checkpoints.back(), scale.target_size);
}

TEST_F(ScaleFromEnvTest, PaperScale) {
  setenv("OSCAR_BENCH_SCALE", "paper", 1);
  const ExperimentScale scale = ScaleFromEnv();
  EXPECT_EQ(scale.target_size, 10000u);
  EXPECT_EQ(scale.checkpoints.size(), 5u);
}

TEST_F(ScaleFromEnvTest, EnvOverrides) {
  setenv("OSCAR_BENCH_SIZE", "240", 1);
  setenv("OSCAR_BENCH_QUERIES", "33", 1);
  setenv("OSCAR_BENCH_SEED", "7", 1);
  const ExperimentScale scale = ScaleFromEnv();
  EXPECT_EQ(scale.target_size, 240u);
  EXPECT_EQ(scale.queries, 33u);
  EXPECT_EQ(scale.seed, 7u);
  EXPECT_EQ(scale.checkpoints.back(), 240u);
}

TEST_F(ScaleFromEnvTest, MalformedIntegersFallBackToDefaults) {
  for (const char* bad : {"-1", " 5", "5x", "18446744073709551616"}) {
    setenv("OSCAR_BENCH_SIZE", bad, 1);
    setenv("OSCAR_BENCH_QUERIES", bad, 1);
    setenv("OSCAR_BENCH_SEED", bad, 1);
    const ExperimentScale scale = ScaleFromEnv();
    EXPECT_EQ(scale.target_size, 600u) << "'" << bad << "'";
    EXPECT_EQ(scale.queries, 600u) << "'" << bad << "'";
    EXPECT_EQ(scale.seed, 42u) << "'" << bad << "'";
  }
}

ExperimentScale TinyScale() {
  ExperimentScale scale;
  scale.target_size = 150;
  scale.queries = 40;
  scale.seed = 42;
  scale.checkpoints = {150};
  return scale;
}

TEST(RunnersTest, SearchCostRowsCoverTheGrid) {
  auto rows = RunSearchCostVsSize(TinyScale(), {"constant", "realistic"},
                                  {0.0, 0.10}, OscarFactory());
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows.value().size(), 4u);  // 2 series x 1 checkpoint x 2 churn.
  for (const SearchCostRow& row : rows.value()) {
    EXPECT_EQ(row.network_size, 150u);
    EXPECT_GT(row.avg_cost, 0.0);
    EXPECT_DOUBLE_EQ(row.success_rate, 1.0);
  }
}

TEST(RunnersTest, OverlayComparisonProducesEveryCell) {
  auto rows = RunOverlayComparison(
      TinyScale(),
      {{"oscar", OscarFactory()}, {"chord", ChordFactory()}},
      {"uniform", "gnutella"});
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows.value().size(), 4u);
  for (const ComparisonRow& row : rows.value()) {
    EXPECT_GT(row.avg_cost, 0.0);
    EXPECT_GT(row.utilization, 0.0);
  }
}

TEST(RunnersTest, DegreeLoadReportsCurves) {
  auto rows =
      RunDegreeLoad(TinyScale(), {"constant"}, OscarFactory(), "oscar");
  ASSERT_TRUE(rows.ok()) << rows.status();
  ASSERT_EQ(rows.value().size(), 1u);
  const DegreeLoadRow& row = rows.value().front();
  EXPECT_EQ(row.overlay_name, "oscar");
  EXPECT_EQ(row.report.sorted_relative_load.size(), 150u);
  EXPECT_GT(row.report.utilization, 0.0);
}

TEST(RunnersTest, UnknownDegreeNamePropagatesError) {
  auto rows = RunSearchCostVsSize(TinyScale(), {"bogus"}, {0.0},
                                  OscarFactory());
  EXPECT_FALSE(rows.ok());
}

}  // namespace
}  // namespace oscar
