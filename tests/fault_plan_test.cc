#include "sim/fault_plan.h"

#include <gtest/gtest.h>

#include "overlay/kleinberg/kleinberg_overlay.h"
#include "sim/fault_state.h"
#include "sim/message_sim.h"

namespace oscar {
namespace {

// ---------------------------------------------------------------- parser

TEST(FaultPlanParseTest, AcceptsEveryKindWithDefaults) {
  auto plan = ParseFaultPlan(
      "crash@120:0.25,0.1;"
      "partition@80+200:0.0,0.3,0.5,0.3;"
      "slow@40+60:0.6,0.2");
  ASSERT_TRUE(plan.ok());
  ASSERT_EQ(plan.value().faults.size(), 3u);

  const FaultSpec& crash = plan.value().faults[0];
  EXPECT_EQ(crash.kind, FaultKind::kRegionCrash);
  EXPECT_DOUBLE_EQ(crash.at_ms, 120.0);
  EXPECT_DOUBLE_EQ(crash.duration_ms, 0.0);
  EXPECT_DOUBLE_EQ(crash.a.span, 0.1);
  EXPECT_EQ(crash.Label(), "crash@120");

  const FaultSpec& cut = plan.value().faults[1];
  EXPECT_EQ(cut.kind, FaultKind::kPartition);
  EXPECT_DOUBLE_EQ(cut.duration_ms, 200.0);
  EXPECT_DOUBLE_EQ(cut.severity, 1.0);  // Loss defaults to a full cut.
  EXPECT_TRUE(cut.symmetric);
  EXPECT_EQ(cut.Label(), "partition@80+200");

  const FaultSpec& slow = plan.value().faults[2];
  EXPECT_EQ(slow.kind, FaultKind::kSlowdown);
  EXPECT_DOUBLE_EQ(slow.severity, 25.0);  // Default multiplier.
  EXPECT_EQ(slow.Label(), "slow@40+60");
}

TEST(FaultPlanParseTest, AcceptsExplicitSeverities) {
  auto plan = ParseFaultPlan(
      "partition@10+20:0.0,0.25,0.5,0.25,0.8;slow@5+5:0.1,0.2,40");
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan.value().faults[0].severity, 0.8);
  EXPECT_DOUBLE_EQ(plan.value().faults[1].severity, 40.0);
}

TEST(FaultPlanParseTest, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",                                      // Empty plan.
      "crash@120:0.25,0.1;",                   // Trailing separator.
      "meteor@120:0.25,0.1",                   // Unknown kind.
      "crash120:0.25,0.1",                     // Missing '@'.
      "crash@120",                             // Missing ':'.
      "crash@abc:0.25,0.1",                    // Bad time.
      "crash@-5:0.25,0.1",                     // Negative time.
      "crash@120+60:0.25,0.1",                 // Crashes can't heal.
      "crash@120:0.25",                        // Missing span.
      "crash@120:0.25,1.0",                    // Whole-ring crash.
      "crash@120:1.25,0.1",                    // Center out of [0,1).
      "crash@120:0.25,0.1,9",                  // Extra field.
      "partition@80+200:0.0,0.3,0.5",          // Too few fields.
      "partition@80+200:0.0,0.3,0.5,0.3,1.5",  // Loss > 1.
      "partition@80+0:0.0,0.3,0.5,0.3",        // Zero duration.
      "slow@40+60:0.6,0.2,0.5",                // Multiplier < 1.
      "slow@40+60:0.6,",                       // Empty field.
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(ParseFaultPlan(spec).ok()) << spec;
  }
}

TEST(FaultPlanParseTest, RejectsNonFiniteAndSpaceLedNumbers) {
  // Every number goes through the CLIs' strict ParseDouble: a bare
  // strtod would take nan/inf (a crash at t=nan, a NaN severity) and a
  // leading space.
  const char* bad[] = {
      "crash@nan:0.1,0.1",
      "crash@inf:0.1,0.1",
      "slow@10+50:0.1,0.2,nan",
      "partition@10+50:0.1,0.2,0.5,0.2,nan",
      "crash@ 5:0.1,0.1",
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(ParseFaultPlan(spec).ok()) << spec;
  }
}

// ------------------------------------------------------- fault switchboard

TEST(FaultStateTest, RegionMembershipWrapsTheRing) {
  const RegionSpec wrapping{KeyId::FromUnit(0.9), 0.2};  // [0.9, 0.1).
  EXPECT_TRUE(wrapping.Contains(KeyId::FromUnit(0.95)));
  EXPECT_TRUE(wrapping.Contains(KeyId::FromUnit(0.05)));
  EXPECT_FALSE(wrapping.Contains(KeyId::FromUnit(0.5)));
  const RegionSpec nothing{KeyId::FromUnit(0.5), 0.0};
  EXPECT_FALSE(nothing.Contains(KeyId::FromUnit(0.5)));
  const RegionSpec everything{KeyId::FromUnit(0.5), 1.0};
  EXPECT_TRUE(everything.Contains(KeyId::FromUnit(0.25)));
}

TEST(FaultStateTest, WorstRuleWinsAndHealDisarmsById) {
  ActiveFaults faults;
  EXPECT_TRUE(faults.empty());
  const RegionSpec left{KeyId::FromUnit(0.0), 0.5};
  const RegionSpec right{KeyId::FromUnit(0.5), 0.5};
  faults.AddPartition(0, left, right, 0.4);
  faults.AddPartition(1, left, right, 0.9);  // Overlapping, worse.
  const KeyId src = KeyId::FromUnit(0.25);
  const KeyId dst = KeyId::FromUnit(0.75);
  EXPECT_DOUBLE_EQ(faults.LossFor(src, dst), 0.9);
  EXPECT_DOUBLE_EQ(faults.LossFor(dst, src), 0.0);  // Directed rule.
  faults.AddSlowdown(2, right, 8.0);
  faults.AddSlowdown(3, right, 3.0);
  EXPECT_DOUBLE_EQ(faults.SlowMultiplierFor(dst), 8.0);
  EXPECT_DOUBLE_EQ(faults.SlowMultiplierFor(src), 1.0);
  faults.Heal(1);
  EXPECT_DOUBLE_EQ(faults.LossFor(src, dst), 0.4);  // Rule 0 remains.
  faults.Heal(0);
  faults.Heal(2);
  faults.Heal(3);
  EXPECT_TRUE(faults.empty());
}

// ------------------------------------------------------------- injector

/// Captures appended events for assertions.
class VectorTraceSink : public BasicTraceSink {
 public:
  void Append(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

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

TEST(FaultInjectorTest, InjectsAndHealsInVirtualTime) {
  Network net = LinkedNetwork(200, 51);
  const size_t alive_before = net.alive_count();
  EventEngine engine;
  ActiveFaults active;
  VectorTraceSink sink;
  FaultInjector injector(&engine, &net, &active, &sink);
  auto plan = ParseFaultPlan(
      "partition@10+20:0.0,0.3,0.5,0.3;crash@25:0.25,0.1");
  ASSERT_TRUE(plan.ok());
  injector.Schedule(plan.value());

  const KeyId src = KeyId::FromUnit(0.1);
  const KeyId dst = KeyId::FromUnit(0.6);
  double loss_at_15 = -1.0;
  double loss_at_35 = -1.0;
  size_t alive_at_35 = 0;
  engine.ScheduleAt(15.0, [&] { loss_at_15 = active.LossFor(src, dst); });
  engine.ScheduleAt(35.0, [&] {
    loss_at_35 = active.LossFor(src, dst);
    alive_at_35 = net.alive_count();
  });
  engine.Run();

  EXPECT_DOUBLE_EQ(loss_at_15, 1.0);  // Armed mid-window.
  EXPECT_DOUBLE_EQ(loss_at_35, 0.0);  // Healed after +20.
  EXPECT_TRUE(active.empty());
  EXPECT_LT(alive_at_35, alive_before);  // The crash landed.
  EXPECT_TRUE(injector.status().ok());

  ASSERT_EQ(injector.injected().size(), 2u);
  const InjectedFault& cut = injector.injected()[0];
  EXPECT_EQ(cut.label, "partition@10+20");
  EXPECT_DOUBLE_EQ(cut.heal_ms, 30.0);
  EXPECT_EQ(cut.crashed, 0u);
  const InjectedFault& crash = injector.injected()[1];
  EXPECT_DOUBLE_EQ(crash.heal_ms, -1.0);  // Crashes never heal.
  EXPECT_EQ(crash.crashed, alive_before - alive_at_35);

  // Trace rows: inject, crash-inject, heal — in virtual-time order.
  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].kind, TraceKind::kFaultInject);
  EXPECT_EQ(sink.events[0].info, 0u);
  EXPECT_EQ(sink.events[1].kind, TraceKind::kFaultInject);
  EXPECT_EQ(sink.events[1].info, 1u);
  EXPECT_EQ(sink.events[2].kind, TraceKind::kFaultHeal);
  EXPECT_EQ(sink.events[2].t_us, TraceTimeUs(30.0));
}

// ----------------------------------------------- through the message engine

TEST(FaultMessageSimTest, FullDirectedCutFailsLookupsUntilHealed) {
  Network net = LinkedNetwork(100, 52);
  EventEngine engine;
  Rng rng(53);
  ActiveFaults active;
  // A whole-ring cut: every transmission drops while the rule is armed.
  active.AddPartition(0, {KeyId::FromUnit(0.0), 1.0},
                      {KeyId::FromUnit(0.0), 1.0}, 1.0);
  MessageSimOptions options;
  options.zero_latency = true;
  options.service_ms = 0.0;
  options.timeout_ms = 10.0;
  options.max_retries = 1;
  options.faults = &active;
  MessageSim sim(&engine, &net, options, &rng);
  const std::vector<PeerId> alive = net.AlivePeers();
  const PeerId source = alive[0];
  const KeyId target = net.key(alive[alive.size() / 2]);
  ASSERT_NE(*net.OwnerOf(target), source);
  sim.SubmitLookupAt(0.0, source, target);
  // The same lookup resubmitted after the heal: identical path, no loss.
  engine.ScheduleAt(100.0, [&active] { active.Heal(0); });
  sim.SubmitLookupAt(200.0, source, target);
  engine.Run();
  ASSERT_EQ(sim.outcomes().size(), 2u);
  EXPECT_FALSE(sim.outcomes()[0].success);  // Cut: retries exhausted.
  EXPECT_TRUE(sim.outcomes()[1].success);   // Healed: clean delivery.
}

TEST(FaultMessageSimTest, SlowdownMultipliesServiceTime) {
  auto run_latency = [](double multiplier) {
    Network net = LinkedNetwork(100, 54);
    EventEngine engine;
    Rng rng(55);
    ActiveFaults active;
    if (multiplier > 1.0) {
      active.AddSlowdown(0, {KeyId::FromUnit(0.0), 1.0}, multiplier);
    }
    MessageSimOptions options;
    options.zero_latency = true;
    options.service_ms = 10.0;
    options.faults = &active;
    MessageSim sim(&engine, &net, options, &rng);
    const std::vector<PeerId> alive = net.AlivePeers();
    const KeyId target = net.key(alive[alive.size() / 2]);
    sim.SubmitLookupAt(0.0, alive[0], target);
    engine.Run();
    EXPECT_EQ(sim.outcomes().size(), 1u);
    EXPECT_TRUE(sim.outcomes()[0].success);
    return sim.outcomes()[0].latency_ms;
  };
  const double base = run_latency(1.0);
  ASSERT_GT(base, 0.0);
  // Same seed, same path, every service 5x slower: latency scales by
  // exactly the multiplier (zero latency leaves only service time).
  EXPECT_DOUBLE_EQ(run_latency(5.0), 5.0 * base);
}

}  // namespace
}  // namespace oscar
