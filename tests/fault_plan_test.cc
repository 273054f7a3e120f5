#include "sim/fault_plan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/rng.h"
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

TEST(FaultPlanParseTest, RejectsTimesPastTheTraceRange) {
  // The bound itself: as an injection time, as a heal time.
  const char* good[] = {
      "crash@1e12:0.25,0.1",
      "partition@0+1e12:0.0,0.3,0.5,0.3",
      "slow@5e11+5e11:0.6,0.2",
  };
  for (const char* spec : good) {
    EXPECT_TRUE(ParseFaultPlan(spec).ok()) << spec;
  }
  const char* bad[] = {
      "crash@1000000000000.001:0.25,0.1",     // Just past the bound.
      "slow@1000000000000.001+1:0.6,0.2",
      "partition@1e12+1:0.0,0.3,0.5,0.3",     // Healed past it.
      "slow@6e11+5e11:0.6,0.2",
      "partition@1e308+1e308:0.0,0.2,0.5,0.2",  // Heal at inf.
  };
  for (const char* spec : bad) {
    EXPECT_FALSE(ParseFaultPlan(spec).ok()) << spec;
  }
  // The trace stamps a time at the bound exactly.
  EXPECT_EQ(TraceTimeUs(kMaxFaultTimeMs), uint64_t{1000000000000000});
  EXPECT_EQ(TraceTimeMs(TraceTimeUs(kMaxFaultTimeMs)), "1000000000000.000");
}

// ---------------------------------------------------------- parser fuzz

/// Splits on `sep`, keeping empty pieces.
std::vector<std::string> Pieces(const std::string& text, char sep) {
  std::vector<std::string> out(1);
  for (char c : text) {
    if (c == sep) {
      out.emplace_back();
    } else {
      out.back() += c;
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces, char sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

const std::vector<std::string>& ValidSpecs() {
  static const std::vector<std::string> specs = {
      "crash@120:0.25,0.1",
      "partition@80+200:0.0,0.3,0.5,0.3",
      "partition@10+20:0.0,0.25,0.5,0.25,0.8",
      "slow@40+60:0.6,0.2",
      "slow@5+5:0.1,0.2,40",
      "crash@80:0.2,0.1;partition@100+300:0.0,0.25,0.5,0.25,0.9;"
      "slow@200+150:0.6,0.2,25",
  };
  return specs;
}

/// One random edit of `spec`: a byte flip, a truncation, a duplicated
/// or spliced fault, a number swapped for an edge string, or a space
/// before a number.
std::string MutateSpec(const std::string& spec, Rng* rng) {
  static const char* const kEdgeNumbers[] = {
      "nan", "inf", "-inf", "1e309", "-1e309", "-0", "0x10", "1e-320",
      "0", "1", "0.99999999999999999", "1e308", "", "+5", "5.",
      "1e12", "1000000000000.001"};
  static const char kGrammar[] = "@+:;,.-e0123456789";
  const std::vector<std::string>& donors = ValidSpecs();
  std::string out = spec;
  const uint64_t op = rng->UniformInt(7);
  switch (op) {
    case 0:  // Flip one byte to anything, NUL included.
      if (!out.empty()) {
        out[rng->UniformInt(out.size())] =
            static_cast<char>(rng->UniformInt(256));
      }
      break;
    case 1:  // Flip one byte to a grammar character.
      if (!out.empty()) {
        out[rng->UniformInt(out.size())] =
            kGrammar[rng->UniformInt(sizeof(kGrammar) - 1)];
      }
      break;
    case 2:  // Truncate.
      out.resize(rng->UniformInt(out.size() + 1));
      break;
    case 3: {  // Duplicate one fault into a random slot.
      std::vector<std::string> faults = Pieces(out, ';');
      const std::string copy = faults[rng->UniformInt(faults.size())];
      faults.insert(faults.begin() + static_cast<std::ptrdiff_t>(
                                         rng->UniformInt(faults.size() + 1)),
                    copy);
      out = Join(faults, ';');
      break;
    }
    case 4: {  // Splice: a donor's fault, or a raw cut of two specs.
      const std::string& donor = donors[rng->UniformInt(donors.size())];
      if (rng->UniformInt(2) == 0) {
        std::vector<std::string> faults = Pieces(out, ';');
        const std::vector<std::string> theirs = Pieces(donor, ';');
        faults[rng->UniformInt(faults.size())] =
            theirs[rng->UniformInt(theirs.size())];
        out = Join(faults, ';');
      } else {
        out = out.substr(0, rng->UniformInt(out.size() + 1)) + ";" +
              donor.substr(rng->UniformInt(donor.size() + 1));
      }
      break;
    }
    case 5:    // Swap a number for an edge string.
    case 6: {  // Put a space before a number.
      // Numbers sit between the grammar's separators.
      std::vector<size_t> starts;
      for (size_t i = 0; i < out.size(); ++i) {
        if (i == 0 || std::string("@+:,;").find(out[i - 1]) !=
                          std::string::npos) {
          starts.push_back(i);
        }
      }
      if (starts.empty()) break;
      const size_t start = starts[rng->UniformInt(starts.size())];
      size_t end = out.find_first_of("@+:,;", start);
      if (end == std::string::npos) end = out.size();
      out.replace(start, end - start,
                  op == 6 ? " " + out.substr(start, end - start)
                          : std::string(kEdgeNumbers[rng->UniformInt(
                                std::size(kEdgeNumbers))]));
      break;
    }
  }
  return out;
}

/// Checks a plan parsed from `spec` against the ranges fault_plan.h
/// documents. The parser stores a center as a ring key, so the centers
/// are read back from the spec's own fields.
void ExpectDocumentedRanges(const std::string& spec, const FaultPlan& plan) {
  SCOPED_TRACE(spec);
  const std::vector<std::string> texts = Pieces(spec, ';');
  ASSERT_EQ(texts.size(), plan.faults.size());
  const auto span_ok = [](double span) { return span > 0.0 && span <= 1.0; };
  const auto center_ok = [](const std::string& field) {
    const double center = std::strtod(field.c_str(), nullptr);
    return center >= 0.0 && center < 1.0;
  };
  for (size_t i = 0; i < texts.size(); ++i) {
    const FaultSpec& fault = plan.faults[i];
    const size_t colon = texts[i].find(':');
    ASSERT_NE(colon, std::string::npos);
    const bool has_duration =
        texts[i].substr(0, colon).find('+') != std::string::npos;
    const std::vector<std::string> fields =
        Pieces(texts[i].substr(colon + 1), ',');
    EXPECT_TRUE(std::isfinite(fault.at_ms) && fault.at_ms >= 0.0);
    EXPECT_LE(fault.at_ms + fault.duration_ms, kMaxFaultTimeMs);
    // A given duration is > 0; none (0) means open-ended.
    if (has_duration) {
      EXPECT_TRUE(std::isfinite(fault.duration_ms) &&
                  fault.duration_ms > 0.0);
    } else {
      EXPECT_EQ(fault.duration_ms, 0.0);
    }
    EXPECT_TRUE(center_ok(fields[0]));
    EXPECT_TRUE(span_ok(fault.a.span));
    EXPECT_TRUE(fault.symmetric);
    switch (fault.kind) {
      case FaultKind::kRegionCrash:
        EXPECT_FALSE(has_duration);
        EXPECT_LT(fault.a.span, 1.0);
        break;
      case FaultKind::kPartition:
        EXPECT_TRUE(center_ok(fields[2]));
        EXPECT_TRUE(span_ok(fault.b.span));
        EXPECT_TRUE(fault.severity > 0.0 && fault.severity <= 1.0);
        break;
      case FaultKind::kSlowdown:
        EXPECT_TRUE(std::isfinite(fault.severity) && fault.severity >= 1.0);
        break;
    }
  }
}

void ExpectSamePlan(const FaultPlan& x, const FaultPlan& y) {
  ASSERT_EQ(x.faults.size(), y.faults.size());
  for (size_t i = 0; i < x.faults.size(); ++i) {
    const FaultSpec& a = x.faults[i];
    const FaultSpec& b = y.faults[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.at_ms, b.at_ms);
    EXPECT_EQ(a.duration_ms, b.duration_ms);
    EXPECT_EQ(a.a.from.raw, b.a.from.raw);
    EXPECT_EQ(a.a.span, b.a.span);
    EXPECT_EQ(a.b.from.raw, b.b.from.raw);
    EXPECT_EQ(a.b.span, b.b.span);
    EXPECT_EQ(a.severity, b.severity);
    EXPECT_EQ(a.symmetric, b.symmetric);
    EXPECT_EQ(a.Label(), b.Label());
  }
}

TEST(FaultPlanParseTest, SurvivesMutatedSpecs) {
  const std::vector<std::string>& bases = ValidSpecs();
  size_t parsed = 0;
  size_t rejected = 0;
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Rng rng(seed);
    for (int iteration = 0; iteration < 1000; ++iteration) {
      std::string spec = bases[rng.UniformInt(bases.size())];
      const uint64_t edits = 1 + rng.UniformInt(3);
      for (uint64_t e = 0; e < edits; ++e) spec = MutateSpec(spec, &rng);
      auto plan = ParseFaultPlan(spec);
      if (!plan.ok()) {
        ASSERT_FALSE(plan.status().message().empty()) << spec;
        ++rejected;
        continue;
      }
      ++parsed;
      ExpectDocumentedRanges(spec, plan.value());
      auto again = ParseFaultPlan(spec);
      ASSERT_TRUE(again.ok()) << spec;
      ExpectSamePlan(plan.value(), again.value());
    }
  }
  // The mutations reach both sides of the parser.
  EXPECT_GT(parsed, 100u);
  EXPECT_GT(rejected, 100u);
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

TEST(FaultInjectorTest, OverlappingPartitionsTakeTheHigherLossAndHealApart) {
  Network net;  // Partitions never touch the network.
  EventEngine engine;
  ActiveFaults active;
  FaultInjector injector(&engine, &net, &active, nullptr);
  // One region pair cut twice: loss 0.9 over [10, 30), 0.4 over [20, 50).
  auto plan = ParseFaultPlan(
      "partition@10+20:0.0,0.5,0.5,0.5,0.9;"
      "partition@20+30:0.0,0.5,0.5,0.5,0.4");
  ASSERT_TRUE(plan.ok());
  injector.Schedule(plan.value());
  const KeyId left = KeyId::FromUnit(0.25);
  const KeyId right = KeyId::FromUnit(0.75);
  std::vector<double> forward;
  std::vector<double> backward;
  for (double at : {15.0, 25.0, 35.0, 55.0}) {
    engine.ScheduleAt(at, [&] {
      forward.push_back(active.LossFor(left, right));
      backward.push_back(active.LossFor(right, left));
    });
  }
  engine.Run();
  // Alone, overlapping (the higher loss applies), after the first heal
  // (the second stays in force), after both heal.
  const std::vector<double> want = {0.9, 0.9, 0.4, 0.0};
  EXPECT_EQ(forward, want);
  EXPECT_EQ(backward, want);  // The parser injects both directions.
  EXPECT_TRUE(active.empty());
}

TEST(FaultInjectorTest, NonPositiveDurationArmsAndNeverHeals) {
  Network net;
  EventEngine engine;
  ActiveFaults active;
  VectorTraceSink sink;
  FaultInjector injector(&engine, &net, &active, &sink);
  FaultSpec cut;
  cut.kind = FaultKind::kPartition;
  cut.at_ms = 10.0;
  cut.duration_ms = 0.0;
  cut.a = {KeyId::FromUnit(0.0), 0.5};
  cut.b = {KeyId::FromUnit(0.5), 0.5};
  cut.severity = 0.7;
  FaultSpec slow;
  slow.kind = FaultKind::kSlowdown;
  slow.at_ms = 10.0;
  slow.duration_ms = -5.0;
  slow.a = {KeyId::FromUnit(0.0), 1.0};
  slow.severity = 3.0;
  injector.Schedule(FaultPlan{{cut, slow}});
  engine.Run();

  ASSERT_EQ(injector.injected().size(), 2u);
  for (const InjectedFault& fault : injector.injected()) {
    EXPECT_LT(fault.heal_ms, 0.0) << fault.label;
  }
  EXPECT_EQ(injector.injected()[0].label, "partition@10");
  EXPECT_EQ(injector.injected()[1].label, "slow@10");
  // Both rules are still armed once the engine has drained.
  EXPECT_DOUBLE_EQ(
      active.LossFor(KeyId::FromUnit(0.25), KeyId::FromUnit(0.75)), 0.7);
  EXPECT_DOUBLE_EQ(active.SlowMultiplierFor(KeyId::FromUnit(0.9)), 3.0);
  ASSERT_EQ(sink.events.size(), 2u);
  for (const TraceEvent& event : sink.events) {
    EXPECT_EQ(event.kind, TraceKind::kFaultInject);
  }
}

TEST(FaultInjectorTest, WholeRingCrashFailsAndJustBelowLeavesOneSurvivor) {
  const auto crash = [](double span) {
    FaultSpec spec;
    spec.kind = FaultKind::kRegionCrash;
    spec.at_ms = 5.0;
    spec.a = {KeyId::FromUnit(0.5), span};
    return spec;
  };
  {
    Network net = LinkedNetwork(100, 57);
    EventEngine engine;
    ActiveFaults active;
    FaultInjector injector(&engine, &net, &active, nullptr);
    FaultSpec later = crash(0.1);
    later.at_ms = 10.0;
    injector.Schedule(FaultPlan{{crash(1.0), later}});
    engine.Run();
    EXPECT_FALSE(injector.status().ok());
    EXPECT_NE(injector.status().message().find("span must be in [0, 1)"),
              std::string::npos)
        << injector.status();
    EXPECT_EQ(injector.injected()[0].crashed, 0u);
    EXPECT_GT(injector.injected()[1].crashed, 0u);  // Later faults fire.
    EXPECT_EQ(net.alive_count(), 100u - injector.injected()[1].crashed);
  }
  {
    Network net = LinkedNetwork(100, 57);
    EventEngine engine;
    ActiveFaults active;
    FaultInjector injector(&engine, &net, &active, nullptr);
    injector.Schedule(FaultPlan{{crash(std::nextafter(1.0, 0.0))}});
    engine.Run();
    EXPECT_TRUE(injector.status().ok()) << injector.status();
    EXPECT_EQ(injector.injected()[0].crashed, 99u);
    EXPECT_EQ(net.alive_count(), 1u);
  }
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
