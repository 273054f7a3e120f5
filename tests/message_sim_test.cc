#include "sim/message_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>
#include <vector>

#include "overlay/kleinberg/kleinberg_overlay.h"
#include "sim/scenario.h"

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

/// Captures appended events for assertions.
class VectorTraceSink : public BasicTraceSink {
 public:
  void Append(const TraceEvent& event) override { events.push_back(event); }
  std::vector<TraceEvent> events;
};

MessageSimOptions FastOptions() {
  MessageSimOptions options;
  options.zero_latency = true;
  options.service_ms = 0.0;
  options.timeout_ms = 10.0;
  return options;
}

TEST(MessageSimTest, IntactNetworkCompletesEveryLookup) {
  Network net = LinkedNetwork(150, 21);
  EventEngine engine;
  Rng rng(22);
  MessageSim sim(&engine, &net, FastOptions(), &rng);
  Rng query_rng(23);
  const std::vector<PeerId> alive = net.AlivePeers();
  for (int q = 0; q < 60; ++q) {
    const PeerId source =
        alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
    sim.SubmitLookupAt(0.0, source, KeyId::FromUnit(query_rng.NextDouble()));
  }
  engine.Run();
  const MessageSimReport report = sim.Report();
  EXPECT_EQ(report.completed, 60u);
  EXPECT_DOUBLE_EQ(report.success_rate, 1.0);
  EXPECT_EQ(report.timeouts, 0u);
  EXPECT_GT(report.messages_sent, 0u);
}

TEST(MessageSimTest, TotalLossExhaustsRetriesAndFailsTheLookup) {
  Network net = LinkedNetwork(100, 24);
  EventEngine engine;
  Rng rng(25);
  MessageSimOptions options = FastOptions();
  options.loss_rate = 1.0;
  options.max_retries = 2;
  MessageSim sim(&engine, &net, options, &rng);
  const std::vector<PeerId> alive = net.AlivePeers();
  const PeerId source = alive[0];
  // A key owned by someone else, so at least one transmission is needed.
  const KeyId target = net.key(alive[alive.size() / 2]);
  ASSERT_NE(*net.OwnerOf(target), source);
  sim.SubmitLookupAt(0.0, source, target);
  engine.Run();
  ASSERT_EQ(sim.outcomes().size(), 1u);
  const LookupOutcome& outcome = sim.outcomes()[0];
  EXPECT_TRUE(outcome.finished);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(outcome.retries, 2u);  // Initial send + 2 resends, all lost.
  const MessageSimReport report = sim.Report();
  EXPECT_EQ(report.messages_sent, 3u);
  EXPECT_EQ(report.lost_messages, 3u);
  EXPECT_EQ(report.timeouts, 3u);
  // Each lost transmission costs one ack timeout of virtual time.
  EXPECT_DOUBLE_EQ(outcome.latency_ms, 3 * options.timeout_ms);
}

TEST(MessageSimTest, ModerateLossRecoversThroughRetries) {
  Network net = LinkedNetwork(150, 26);
  EventEngine engine;
  Rng rng(27);
  MessageSimOptions options = FastOptions();
  options.loss_rate = 0.3;
  options.max_retries = 8;
  MessageSim sim(&engine, &net, options, &rng);
  Rng query_rng(28);
  const std::vector<PeerId> alive = net.AlivePeers();
  for (int q = 0; q < 60; ++q) {
    const PeerId source =
        alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
    sim.SubmitLookupAt(0.0, source, KeyId::FromUnit(query_rng.NextDouble()));
  }
  engine.Run();
  const MessageSimReport report = sim.Report();
  EXPECT_EQ(report.completed, 60u);
  EXPECT_DOUBLE_EQ(report.success_rate, 1.0);
  EXPECT_GT(report.retries, 0u);
  EXPECT_EQ(report.timeouts, report.lost_messages);
}

TEST(MessageSimTest, AdmissionCapBoundsConcurrency) {
  Network net = LinkedNetwork(150, 29);
  EventEngine engine;
  Rng rng(30);
  MessageSimOptions options;  // Real latency: lookups overlap in time.
  options.max_in_flight = 4;
  MessageSim sim(&engine, &net, options, &rng);
  Rng query_rng(31);
  const std::vector<PeerId> alive = net.AlivePeers();
  for (int q = 0; q < 50; ++q) {
    const PeerId source =
        alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
    sim.SubmitLookupAt(0.0, source, KeyId::FromUnit(query_rng.NextDouble()));
  }
  engine.Run();
  const MessageSimReport report = sim.Report();
  EXPECT_EQ(report.completed, 50u);
  EXPECT_LE(report.peak_in_flight, 4u);
  EXPECT_GT(report.peak_in_flight, 0u);
}

TEST(MessageSimTest, PerPeerServiceQueueSerializesASaturatedSource) {
  Network net = LinkedNetwork(100, 32);
  EventEngine engine;
  Rng rng(33);
  MessageSimOptions options = FastOptions();
  options.service_ms = 10.0;  // Decision time dominates; delays are zero.
  // Every lifecycle event lands on a multiple of 10 ms; the samples, at
  // multiples of 3125/1024 ms (exact in binary), never do before the
  // 2048th tick, so no sample ties a service or a delivery.
  options.queue_depth_cadence_ms = 3125.0 / 1024.0;
  VectorTraceSink sink;
  options.sink = &sink;
  MessageSim sim(&engine, &net, options, &rng);
  Rng query_rng(34);
  const std::vector<PeerId> alive = net.AlivePeers();
  const PeerId hot_source = alive[0];
  for (int q = 0; q < 20; ++q) {
    sim.SubmitLookupAt(0.0, hot_source,
                       KeyId::FromUnit(query_rng.NextDouble()));
  }
  engine.Run();
  const MessageSimReport report = sim.Report();
  EXPECT_EQ(report.completed, 20u);
  // 20 queries share one service queue at the source: the last one
  // waits through at least the 19 services ahead of it.
  EXPECT_GE(report.latency.max_ms, 19 * options.service_ms);
  EXPECT_GT(report.mean_in_flight, 1.0);

  // The sampler's queue depths against a reference count replayed from
  // the lifecycle events, in emission (= dispatch) order. Delays are
  // zero and nothing is lost, so a message joins the queue of the peer
  // it starts at or is sent to, and leaves it when that peer's service
  // ends: with the message's next hop, or with the lookup's end.
  std::vector<uint32_t> depth(net.size(), 0);
  std::vector<PeerId> at(20, 0);
  size_t ticks = 0;
  uint32_t deepest = 0;
  for (size_t i = 0; i < sink.events.size(); ++i) {
    const TraceEvent& event = sink.events[i];
    switch (event.kind) {
      case TraceKind::kStart:
        at[event.lookup] = event.peer;
        ++depth[event.peer];
        break;
      case TraceKind::kForward:
      case TraceKind::kBacktrack:
        ASSERT_EQ(event.peer, at[event.lookup]);
        --depth[event.peer];
        at[event.lookup] = event.to;
        ++depth[event.to];
        break;
      case TraceKind::kDone:
      case TraceKind::kFailed:
        --depth[at[event.lookup]];
        break;
      case TraceKind::kInFlight: {
        // One tick: the in-flight sample, then one kQueueDepth per
        // nonempty queue in peer order.
        ++ticks;
        std::vector<std::pair<uint32_t, uint32_t>> expected;
        for (PeerId peer = 0; peer < depth.size(); ++peer) {
          if (depth[peer] > 0) expected.emplace_back(peer, depth[peer]);
          deepest = std::max(deepest, depth[peer]);
        }
        std::vector<std::pair<uint32_t, uint32_t>> sampled;
        while (i + 1 < sink.events.size() &&
               sink.events[i + 1].kind == TraceKind::kQueueDepth) {
          ++i;
          sampled.emplace_back(sink.events[i].peer, sink.events[i].info);
        }
        ASSERT_EQ(sampled, expected) << "tick " << ticks;
        break;
      }
      default:
        FAIL() << "unexpected " << TraceKindName(event.kind);
    }
  }
  EXPECT_GT(ticks, 19u);      // Sampled through the whole drain.
  EXPECT_EQ(deepest, 20u);    // The first tick sees every query queued.
}

TEST(MessageSimTest, MemoizedHopDelaysMatchTheLatencyModelAfterChurnJoins) {
  Network net = LinkedNetwork(150, 42);
  const size_t founders = net.size();
  EventEngine engine;
  Rng rng(43);
  MessageSimOptions options;  // Real latency: every hop is priced.
  VectorTraceSink sink;
  options.sink = &sink;
  MessageSim sim(&engine, &net, options, &rng);
  Rng query_rng(44);
  const std::vector<PeerId> alive = net.AlivePeers();
  for (int q = 0; q < 200; ++q) {
    const PeerId source =
        alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
    sim.SubmitLookupAt(static_cast<double>(q), source,
                       KeyId::FromUnit(query_rng.NextDouble()));
  }
  // 60 peers join in three waves while lookups fly.
  Rng churn_rng(45);
  KleinbergOverlay overlay;
  for (double wave : {30.0, 80.0, 130.0}) {
    engine.ScheduleAt(wave, [&net, &churn_rng, &overlay] {
      for (int i = 0; i < 20; ++i) {
        const PeerId joiner = net.Join(
            KeyId::FromUnit(churn_rng.NextDouble()), DegreeCaps{8, 8});
        EXPECT_TRUE(overlay.BuildLinks(&net, joiner, &churn_rng).ok());
      }
    });
  }
  engine.Run();
  EXPECT_EQ(sim.Report().completed, 200u);
  ASSERT_EQ(net.size(), founders + 60);
  // Joiners were sent messages, so their delays were memoized mid-run.
  size_t to_joiners = 0;
  for (const TraceEvent& event : sink.events) {
    if (event.kind == TraceKind::kForward && event.to >= founders) {
      ++to_joiners;
    }
  }
  EXPECT_GT(to_joiners, 0u);
  for (PeerId peer = 0; peer < net.size(); ++peer) {
    EXPECT_EQ(sim.HopDelayMs(peer), LatencyModel::DelayForKey(net.key(peer)))
        << "peer " << peer;
  }
}

TEST(MessageSimTest, LookupsSurviveCrashesRacingDelivery) {
  Network net = LinkedNetwork(250, 35);
  EventEngine engine;
  Rng rng(36);
  MessageSimOptions options;  // Real latency so crashes land mid-flight.
  options.timeout_ms = 50.0;
  options.max_in_flight = 256;
  MessageSim sim(&engine, &net, options, &rng);
  Rng query_rng(37);
  const std::vector<PeerId> alive = net.AlivePeers();
  for (int q = 0; q < 150; ++q) {
    const PeerId source =
        alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
    sim.SubmitLookupAt(static_cast<double>(q), source,
                       KeyId::FromUnit(query_rng.NextDouble()));
  }
  // A third of the network dies in three waves while lookups fly.
  Rng churn_rng(38);
  for (double at : {40.0, 80.0, 120.0}) {
    engine.ScheduleAt(at, [&net, &churn_rng] {
      std::vector<PeerId> still = net.AlivePeers();
      for (int i = 0; i < 25; ++i) {
        const PeerId victim = still[static_cast<size_t>(
            churn_rng.UniformInt(still.size()))];
        if (net.alive(victim) && net.alive_count() > 1) {
          net.CrashMany({victim});
        }
      }
    });
  }
  engine.Run(4000000);
  const MessageSimReport report = sim.Report();
  // Every lookup terminates — crashes cost timeouts and reroutes, never
  // a hung query.
  EXPECT_EQ(report.completed, 150u);
  EXPECT_GT(report.success_rate, 0.7);
}

TEST(MessageSimTest, TraceIsSeedDeterministic) {
  MessageSimOptions options;
  options.loss_rate = 0.2;
  options.max_retries = 4;
  auto run_trace = [&options](uint64_t seed) {
    Network net = LinkedNetwork(120, 39);
    EventEngine engine;
    Rng rng(seed);
    std::ostringstream trace;
    CsvTraceSink sink(&trace);
    MessageSimOptions traced = options;
    traced.sink = &sink;
    MessageSim sim(&engine, &net, traced, &rng);
    Rng query_rng(seed ^ 41);
    const std::vector<PeerId> alive = net.AlivePeers();
    for (int q = 0; q < 40; ++q) {
      const PeerId source =
          alive[static_cast<size_t>(query_rng.UniformInt(alive.size()))];
      sim.SubmitLookupAt(static_cast<double>(q), source,
                         KeyId::FromUnit(query_rng.NextDouble()));
    }
    engine.Run();
    return trace.str();
  };
  const std::string first = run_trace(40);
  EXPECT_GT(first.size(), std::string(CsvTraceSink::Header()).size());
  EXPECT_EQ(first, run_trace(40));
  EXPECT_NE(first, run_trace(41));
}

}  // namespace
}  // namespace oscar
