// Deterministic-replay guard: two simulations with the same seed must
// produce byte-identical search-cost rows — and two message-level
// scenario runs with the same seed must produce byte-identical event
// traces. A different seed must not.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiments.h"
#include "sim/scenario.h"
#include "trace/trace.h"

namespace oscar {
namespace {

ExperimentScale TinyScale(uint64_t seed) {
  ExperimentScale scale;
  scale.target_size = 120;
  scale.queries = 40;
  scale.seed = seed;
  scale.checkpoints = {60, 120};
  return scale;
}

std::string RowsAsBytes(const std::vector<SearchCostRow>& rows) {
  std::ostringstream os;
  for (const SearchCostRow& row : rows) {
    os << row.series << '|' << row.churn_fraction << '|' << row.network_size
       << '|' << row.avg_cost << '|' << row.avg_wasted << '|'
       << row.success_rate << '\n';
  }
  return os.str();
}

TEST(DeterminismTest, SameSeedSameBytes) {
  auto first = RunSearchCostVsSize(TinyScale(42), {"constant"},
                                   {0.0, 0.10}, OscarFactory());
  auto second = RunSearchCostVsSize(TinyScale(42), {"constant"},
                                    {0.0, 0.10}, OscarFactory());
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(RowsAsBytes(first.value()), RowsAsBytes(second.value()));
}

TEST(DeterminismTest, DifferentSeedDifferentRun) {
  auto first = RunSearchCostVsSize(TinyScale(42), {"constant"}, {0.0},
                                   OscarFactory());
  auto second = RunSearchCostVsSize(TinyScale(43), {"constant"}, {0.0},
                                    OscarFactory());
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_NE(RowsAsBytes(first.value()), RowsAsBytes(second.value()));
}

/// Runs the rolling-churn scenario (the busiest one: crashes, joins,
/// timeouts and reroutes all interleave) with the message trace on and
/// returns the full event trace plus the summary numbers as one string.
std::string ScenarioTraceBytes(uint64_t seed) {
  ScenarioOptions base;
  base.network_size = 140;
  base.lookups = 70;
  base.seed = seed;
  std::ostringstream trace;
  CsvTraceSink sink(&trace);
  base.sim.sink = &sink;
  auto run = RunScenario("rolling-churn", base);
  EXPECT_TRUE(run.ok()) << run.status();
  if (!run.ok()) return "";
  EXPECT_GT(trace.str().size(), std::string(CsvTraceSink::Header()).size());
  const MessageSimReport& report = run.value().report;
  std::ostringstream os;
  os << trace.str() << "completed=" << report.completed
     << " succeeded=" << report.succeeded
     << " messages=" << report.messages_sent
     << " timeouts=" << report.timeouts << " mean_ms=" << report.latency.mean_ms
     << " events=" << run.value().events_dispatched;
  return os.str();
}

TEST(DeterminismTest, SameSeedSameEventTrace) {
  const std::string first = ScenarioTraceBytes(42);
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, ScenarioTraceBytes(42));
}

TEST(DeterminismTest, DifferentSeedDifferentEventTrace) {
  EXPECT_NE(ScenarioTraceBytes(42), ScenarioTraceBytes(43));
}

}  // namespace
}  // namespace oscar
