#include "sim/scenario.h"

#include <gtest/gtest.h>

namespace oscar {
namespace {

ScenarioOptions TinyScale() {
  ScenarioOptions base;
  base.network_size = 150;
  base.lookups = 80;
  base.seed = 42;
  return base;
}

/// Grows `base`'s topology and runs `name` on a restore of it, as
/// oscar_sim does.
Result<ScenarioResult> RunScenario(const std::string& name,
                                   const ScenarioOptions& base) {
  auto grown = GrowScenarioTopology(base);
  if (!grown.ok()) return grown.status();
  Network scratch;
  return RunScenarioOn(name, base, grown.value(), &scratch);
}

TEST(ScenarioTest, EveryCatalogEntryRunsAndCompletes) {
  for (const std::string& name : ScenarioCatalog()) {
    auto run = RunScenario(name, TinyScale());
    ASSERT_TRUE(run.ok()) << name << ": " << run.status();
    const ScenarioResult& result = run.value();
    EXPECT_EQ(result.report.submitted, 80u) << name;
    EXPECT_EQ(result.report.completed, 80u) << name;
    EXPECT_GT(result.report.success_rate, 0.5) << name;
    EXPECT_GT(result.events_dispatched, 0u) << name;
  }
}

TEST(ScenarioTest, UnknownScenarioIsAnError) {
  EXPECT_FALSE(RunScenario("thundering-herd", TinyScale()).ok());
}

TEST(ScenarioTest, FlashCrowdConcentratesLoadOnHotOwners) {
  auto baseline = RunScenario("baseline", TinyScale());
  auto crowd = RunScenario("flash-crowd", TinyScale());
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_TRUE(crowd.ok()) << crowd.status();
  // A Zipf burst on 16 hot keys funnels traffic through far fewer
  // peers than the organically skewed baseline stream.
  EXPECT_GT(crowd.value().report.peer_load.gini,
            baseline.value().report.peer_load.gini);
  EXPECT_GT(crowd.value().report.peak_in_flight,
            baseline.value().report.peak_in_flight);
}

TEST(ScenarioTest, RollingChurnCrashesAndJoinsPeers) {
  auto run = RunScenario("rolling-churn", TinyScale());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run.value().crashed, 0u);
  EXPECT_GT(run.value().joined, 0u);
}

TEST(ScenarioTest, SlowPeersInflateTailLatency) {
  // The control gets the same uniform service_ms the slow-peers
  // scenario sets, but no slow cohort — so the assertions isolate the
  // heterogeneity itself, not the higher base service time.
  ScenarioOptions control = TinyScale();
  control.sim.service_ms = 2.0;
  auto baseline = RunScenario("baseline", control);
  auto slow = RunScenario("slow-peers", TinyScale());
  ASSERT_TRUE(baseline.ok()) << baseline.status();
  ASSERT_TRUE(slow.ok()) << slow.status();
  ASSERT_EQ(slow.value().options.sim.service_ms, 2.0)
      << "control drifted from the scenario's base service time";
  // Shape check: a 10% population of 50x-slower peers inflates the
  // latency tail — lookups routed through a slow peer inherit its
  // service time — while routes themselves are unchanged.
  EXPECT_GT(slow.value().report.latency.p95_ms,
            baseline.value().report.latency.p95_ms * 1.05);
  EXPECT_GT(slow.value().report.latency.mean_ms,
            baseline.value().report.latency.mean_ms);
  EXPECT_EQ(slow.value().report.mean_hops,
            baseline.value().report.mean_hops);
}

TEST(ScenarioTest, SharedGrownTopologyReplaysLikeFreshGrowth) {
  const ScenarioOptions base = TinyScale();
  auto grown = GrowScenarioTopology(base);
  ASSERT_TRUE(grown.ok()) << grown.status();
  for (const std::string name : {"baseline", "rolling-churn"}) {
    auto fresh = RunScenario(name, base);
    Network scratch;
    auto replay = RunScenarioOn(name, base, grown.value(), &scratch);
    ASSERT_TRUE(fresh.ok()) << fresh.status();
    ASSERT_TRUE(replay.ok()) << replay.status();
    // Restoring the shared snapshot must reproduce the regrown run
    // exactly, including the churn that mutates the restored copy.
    EXPECT_EQ(fresh.value().report.messages_sent,
              replay.value().report.messages_sent) << name;
    EXPECT_EQ(fresh.value().report.succeeded,
              replay.value().report.succeeded) << name;
    EXPECT_EQ(fresh.value().report.latency.p95_ms,
              replay.value().report.latency.p95_ms) << name;
    EXPECT_EQ(fresh.value().crashed, replay.value().crashed) << name;
    EXPECT_EQ(fresh.value().events_dispatched,
              replay.value().events_dispatched) << name;
  }
}

TEST(ScenarioTest, MessageLossTriggersRetries) {
  auto run = RunScenario("message-loss", TinyScale());
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_GT(run.value().report.retries, 0u);
  EXPECT_GT(run.value().report.lost_messages, 0u);
}

TEST(ScenarioTest, HostileScenariosReportRecoveryForEveryFault) {
  const struct {
    const char* name;
    size_t faults;
  } hostile[] = {{"partition-heal", 1},
                 {"repair-vs-churn", 1},
                 {"adversarial-hotkeys", 1},
                 {"cascade-slowdown", 2}};
  for (const auto& expected : hostile) {
    auto run = RunScenario(expected.name, TinyScale());
    ASSERT_TRUE(run.ok()) << expected.name << ": " << run.status();
    const ScenarioResult& result = run.value();
    ASSERT_EQ(result.recovery.faults.size(), expected.faults)
        << expected.name;
    for (const FaultRecovery& fault : result.recovery.faults) {
      EXPECT_FALSE(fault.label.empty()) << expected.name;
      // Every injected fault produces a real dip and a measured
      // time-to-recover at the catalog seed (0 = never dipped,
      // -1 = never recovered; both would gut the scenario's point).
      EXPECT_GT(fault.ttr_ms, 0.0) << expected.name << " " << fault.label;
      EXPECT_LT(fault.dip, fault.ok_before)
          << expected.name << " " << fault.label;
    }
    // Repair actually ran and spent sampling bandwidth mid-scenario.
    EXPECT_FALSE(result.maintenance.empty()) << expected.name;
    EXPECT_GT(result.maintenance_sampling_steps, 0u) << expected.name;
  }
}

TEST(ScenarioTest, MaintenanceStrictlyImprovesRepairVsChurn) {
  for (uint64_t seed : {42u, 43u, 44u, 45u}) {
    ScenarioOptions with = TinyScale();
    with.seed = seed;
    ScenarioOptions without = with;
    without.maintenance_cadence_ms = 0.0;  // Force repair off.
    auto healed = RunScenario("repair-vs-churn", with);
    auto ailing = RunScenario("repair-vs-churn", without);
    ASSERT_TRUE(healed.ok()) << healed.status();
    ASSERT_TRUE(ailing.ok()) << ailing.status();
    // The maintenance rng stream is private, so the two runs share
    // every churn and workload draw — the only delta is repair.
    EXPECT_GT(healed.value().report.success_rate,
              ailing.value().report.success_rate)
        << "seed " << seed;
    EXPECT_TRUE(ailing.value().maintenance.empty());
    EXPECT_FALSE(healed.value().maintenance.empty());
  }
}

TEST(ScenarioTest, CrossCheckMatchesSynchronousEngine) {
  for (uint64_t seed : {42u, 43u}) {
    ScenarioOptions base = TinyScale();
    base.seed = seed;
    auto grown = GrowScenarioTopology(base);
    ASSERT_TRUE(grown.ok()) << grown.status();
    auto checked = CrossCheckMessageVsSync(base, grown.value());
    ASSERT_TRUE(checked.ok()) << "seed " << seed << ": " << checked.status();
    EXPECT_EQ(checked.value(), 80u);
  }
}

}  // namespace
}  // namespace oscar
