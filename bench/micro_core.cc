// Micro-benchmarks (google-benchmark): hot-path costs of the simulator
// substrate — ring queries, routing, sampling, partitioning, link
// construction, event dispatch and message-level lookups. These guard
// against performance regressions that would make the paper-scale
// harnesses impractically slow.

#include <benchmark/benchmark.h>

#include <limits>

#include "keyspace/gnutella_distribution.h"
#include "overlay/kleinberg/kleinberg_overlay.h"
#include "overlay/oscar/oscar_overlay.h"
#include "routing/route_stepper.h"
#include "sampling/oracle_sampler.h"
#include "sampling/random_walk_sampler.h"
#include "churn/churn.h"
#include "sim/event_engine.h"
#include "sim/message_sim.h"
#include "sim/scenario.h"

namespace oscar {
namespace {

Network MakeLinkedNetwork(size_t n, uint64_t seed) {
  Network net;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    net.Join(KeyId::FromUnit(rng.NextDouble()), DegreeCaps{27, 27});
  }
  KleinbergOverlay overlay;
  for (PeerId id : net.AlivePeers()) {
    (void)overlay.BuildLinks(&net, id, &rng);
  }
  return net;
}

void BM_RingOwnerLookup(benchmark::State& state) {
  Network net = MakeLinkedNetwork(static_cast<size_t>(state.range(0)), 1);
  Rng rng(2);
  for (auto _ : state) {
    auto owner = net.OwnerOf(KeyId::FromUnit(rng.NextDouble()));
    benchmark::DoNotOptimize(owner);
  }
}
BENCHMARK(BM_RingOwnerLookup)->Arg(1000)->Arg(10000);

void BM_RingSegmentCount(benchmark::State& state) {
  Network net = MakeLinkedNetwork(static_cast<size_t>(state.range(0)), 3);
  Rng rng(4);
  for (auto _ : state) {
    const KeyId from = KeyId::FromUnit(rng.NextDouble());
    const KeyId to = KeyId::FromUnit(rng.NextDouble());
    benchmark::DoNotOptimize(net.ring().CountInSegment(from, to));
  }
}
BENCHMARK(BM_RingSegmentCount)->Arg(10000);

void BM_GreedyRoute(benchmark::State& state) {
  Network net = MakeLinkedNetwork(static_cast<size_t>(state.range(0)), 5);
  Rng rng(6);
  const std::vector<PeerId> peers = net.AlivePeers();
  for (auto _ : state) {
    const PeerId source =
        peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
    const RouteResult r = Route(Routing::kGreedy, net, source,
                                KeyId::FromUnit(rng.NextDouble()));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_GreedyRoute)->Arg(1000)->Arg(10000);

/// The benchmark's serve topology: GrowScenarioTopology at the default
/// ScenarioOptions (Oscar, Gnutella keys, realistic degrees), N=3000,
/// seed 43, frozen. Grown once per process, since google-benchmark
/// calls a probe more than once.
const TopologySnapshot& ServeSnapshot() {
  static const TopologySnapshot snapshot = [] {
    ScenarioOptions base;
    base.network_size = 3000;
    base.seed = 43;
    return GrowScenarioTopology(base).value().snapshot;
  }();
  return snapshot;
}

/// One greedy lookup per iteration over the frozen CSR snapshot through
/// a reused stepper, drawn as LoadGenerator draws them: a source among
/// the ring entries and a raw 64-bit key. BM_GreedyRoute is the same
/// walk over a live Network.
void BM_GreedyRouteSnapshot(benchmark::State& state) {
  const TopologySnapshot& snapshot = ServeSnapshot();
  const std::vector<Ring::Entry>& entries = snapshot.ring().entries();
  GreedyStepper stepper;
  Rng rng(44);
  for (auto _ : state) {
    const PeerId source = entries[rng.UniformInt(entries.size())].id;
    const RouteResult& r =
        stepper.Run(snapshot, source, KeyId::FromRaw(rng.Next()));
    benchmark::DoNotOptimize(r.hops);
  }
}
BENCHMARK(BM_GreedyRouteSnapshot);

/// One checkpoint-rewire plan per iteration over the same frozen serve
/// topology: OscarOverlay::PlanLinks for a peer drawn from the ring
/// entries, with the default random-walk sampler. That is the grow
/// workload's rewire path: partitions, sampling walks and their
/// fallback routes.
void BM_OscarPlanLinksSnapshot(benchmark::State& state) {
  const TopologySnapshot& snapshot = ServeSnapshot();
  const std::vector<Ring::Entry>& entries = snapshot.ring().entries();
  const OscarOverlay overlay;
  Rng rng(45);
  for (auto _ : state) {
    const PeerId id = entries[rng.UniformInt(entries.size())].id;
    const PeerLinkPlan plan = overlay.PlanLinks(snapshot, id, &rng);
    benchmark::DoNotOptimize(plan.sampling_steps);
  }
}
BENCHMARK(BM_OscarPlanLinksSnapshot);

void BM_BacktrackingRouteUnderChurn(benchmark::State& state) {
  Network net = MakeLinkedNetwork(10000, 7);
  Rng churn_rng(8);
  (void)CrashFraction(&net, 0.33, &churn_rng);
  Rng rng(9);
  const std::vector<PeerId> peers = net.AlivePeers();
  for (auto _ : state) {
    const PeerId source =
        peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
    const RouteResult r = Route(Routing::kBacktracking, net, source,
                                KeyId::FromUnit(rng.NextDouble()));
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_BacktrackingRouteUnderChurn);

/// The message engine's traffic shape without the routing: arrivals
/// pre-scheduled in time order, and chains that keep a fixed number of
/// events in flight until the budget runs out.
struct DispatchLoad {
  EventEngine engine;
  Rng rng{20};
  // Events left before the chains stop: each arrival spends one, and
  // so does each chain event when `chains_spend` is set.
  size_t budget = 0;
  bool chains_spend = false;
};

void ScheduleChainEvent(DispatchLoad* load) {
  // 64 chains at a mean gap of 80 ms fire about eight events per 10 ms
  // arrival, close to a sim-steady lookup's events.
  load->engine.ScheduleAfter(160.0 * load->rng.NextDouble(), [load] {
    if (load->budget == 0) return;
    if (load->chains_spend) --load->budget;
    ScheduleChainEvent(load);
  });
}

/// One batch: 100k arrivals (every 10 ms on average, as sim-steady's)
/// scheduled up front, with about 64 events in flight beside them, all
/// dispatched: about 900k events. Time per batch, so 1 ms per batch is
/// about 1.1 ns per event.
void BM_EventDispatch(benchmark::State& state) {
  constexpr size_t kArrivals = 100000;
  constexpr int kInFlight = 64;
  for (auto _ : state) {
    DispatchLoad load;
    load.budget = kArrivals;
    SimTime at = 0.0;
    for (size_t i = 0; i < kArrivals; ++i) {
      at += 20.0 * load.rng.NextDouble();
      load.engine.ScheduleAt(at, [&load] { --load.budget; });
    }
    for (int i = 0; i < kInFlight; ++i) ScheduleChainEvent(&load);
    benchmark::DoNotOptimize(load.engine.Run());
  }
}
BENCHMARK(BM_EventDispatch)->Unit(benchmark::kMillisecond);

/// The heap path alone: the same 64 chains, no arrivals, and one event
/// at the largest finite time holding the sorted run's tail, so every
/// chain event is earlier than the tail and goes through the heap. One
/// batch is 900k chain events, so 1 ms per batch is about 1.1 ns per
/// event.
void BM_EventDispatchHeap(benchmark::State& state) {
  constexpr size_t kChainEvents = 900000;
  constexpr int kInFlight = 64;
  for (auto _ : state) {
    DispatchLoad load;
    load.budget = kChainEvents;
    load.chains_spend = true;
    load.engine.ScheduleAt(std::numeric_limits<double>::max(), [] {});
    for (int i = 0; i < kInFlight; ++i) ScheduleChainEvent(&load);
    benchmark::DoNotOptimize(load.engine.Run());
  }
}
BENCHMARK(BM_EventDispatchHeap)->Unit(benchmark::kMillisecond);

/// One batch of 10k lookups through a fresh EventEngine and MessageSim
/// on a 3000-peer network: arrivals every 10 ms on average, default
/// service, latency and admission. Time per batch, so per lookup it is
/// the batch time over 10k.
void BM_MessageSimLookup(benchmark::State& state) {
  constexpr size_t kLookups = 10000;
  Network net = MakeLinkedNetwork(3000, 21);
  const std::vector<PeerId> peers = net.AlivePeers();
  Rng rng(22);
  for (auto _ : state) {
    EventEngine engine;
    MessageSim sim(&engine, &net, MessageSimOptions{}, &rng);
    SimTime at = 0.0;
    for (size_t i = 0; i < kLookups; ++i) {
      const PeerId source =
          peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
      sim.SubmitLookupAt(at, source, KeyId::FromUnit(rng.NextDouble()));
      at += 20.0 * rng.NextDouble();
    }
    benchmark::DoNotOptimize(engine.Run());
  }
}
BENCHMARK(BM_MessageSimLookup)->Unit(benchmark::kMillisecond);

void BM_OracleSegmentSample(benchmark::State& state) {
  Network net = MakeLinkedNetwork(10000, 10);
  OracleSegmentSampler sampler;
  Rng rng(11);
  for (auto _ : state) {
    auto s = sampler.SampleInSegment(net, 0, KeyId::FromUnit(0.1),
                                     KeyId::FromUnit(0.9), &rng);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_OracleSegmentSample);

void BM_RandomWalkSegmentSample(benchmark::State& state) {
  Network net = MakeLinkedNetwork(10000, 12);
  RandomWalkSegmentSampler sampler;
  Rng rng(13);
  for (auto _ : state) {
    auto s = sampler.SampleInSegment(net, 0, KeyId::FromUnit(0.1),
                                     KeyId::FromUnit(0.9), &rng);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_RandomWalkSegmentSample);

void BM_OscarPartitioning(benchmark::State& state) {
  Network net = MakeLinkedNetwork(10000, 14);
  OscarOverlay overlay;
  Rng rng(15);
  const std::vector<PeerId> peers = net.AlivePeers();
  for (auto _ : state) {
    const PeerId u =
        peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
    auto parts = overlay.partitioner().ComputePartitions(net, u, &rng);
    benchmark::DoNotOptimize(parts);
  }
}
BENCHMARK(BM_OscarPartitioning);

void BM_OscarBuildLinks(benchmark::State& state) {
  Network net = MakeLinkedNetwork(10000, 16);
  OscarOverlay overlay;
  Rng rng(17);
  const std::vector<PeerId> peers = net.AlivePeers();
  for (auto _ : state) {
    const PeerId u =
        peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
    net.ClearLongLinks(u);
    benchmark::DoNotOptimize(overlay.BuildLinks(&net, u, &rng));
  }
}
BENCHMARK(BM_OscarBuildLinks);

void BM_NetworkJoin(benchmark::State& state) {
  Rng rng(18);
  for (auto _ : state) {
    state.PauseTiming();
    Network net = MakeLinkedNetwork(1000, rng.Next());
    state.ResumeTiming();
    for (int i = 0; i < 100; ++i) {
      net.Join(KeyId::FromUnit(rng.NextDouble()), DegreeCaps{27, 27});
    }
    benchmark::DoNotOptimize(net.alive_count());
  }
}
BENCHMARK(BM_NetworkJoin)->Unit(benchmark::kMicrosecond);

void BM_GnutellaSample(benchmark::State& state) {
  auto dist = GnutellaKeyDistribution::Make();
  Rng rng(19);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dist.value().Sample(&rng));
  }
}
BENCHMARK(BM_GnutellaSample);

}  // namespace
}  // namespace oscar
