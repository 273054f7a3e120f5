#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "common/audit.h"
#include "common/string_util.h"
#include "core/experiments.h"
#include "core/simulation.h"

namespace oscar {

Result<GrownTopology> GrowScenarioTopology(const ScenarioOptions& base) {
  auto keys = MakeKeyDistribution(base.keys);
  if (!keys.ok()) return keys.status();
  auto degrees = MakePaperDegreeDistribution(base.degrees);
  if (!degrees.ok()) return degrees.status();
  auto factory = MakeNamedOverlay(base.overlay);
  if (!factory.ok()) return factory.status();

  GrowthConfig config;
  config.target_size = base.network_size;
  config.queries_per_checkpoint = 0;  // Structure only; no sync queries.
  config.seed = base.seed;
  config.checkpoints = {base.network_size};
  config.key_distribution = keys.value();
  config.degree_distribution = degrees.value();
  config.overlay = factory.value()();
  Simulation growth(std::move(config));
  auto grown = growth.Run();
  if (!grown.ok()) return grown.status();

  GrownTopology topology;
  topology.snapshot = TopologySnapshot(growth.network());
  // This one freeze backs every scenario replay of the topology.
  if (AuditEnabled()) {
    const Status audit = topology.snapshot.Validate();
    OSCAR_AUDIT(audit.ok(), "scenario freeze: " + audit.message());
  }
  topology.overlay = growth.config().overlay;
  topology.keys = growth.config().key_distribution;
  topology.degrees = growth.config().degree_distribution;
  return topology;
}

const std::vector<std::string>& ScenarioCatalog() {
  static const std::vector<std::string> kCatalog = {
      "baseline",       "flash-crowd",     "rolling-churn",
      "regional-crash", "message-loss",    "slow-peers",
      "partition-heal", "repair-vs-churn", "adversarial-hotkeys",
      "cascade-slowdown",
  };
  return kCatalog;
}

Result<ScenarioOptions> MakeScenarioOptions(const std::string& name,
                                            ScenarioOptions base) {
  // The span of the steady arrival process; failure schedules anchor to
  // it so scenarios stay meaningful at any scale.
  const double span_ms =
      static_cast<double>(base.lookups) * base.arrival_interval_ms;
  if (name == "baseline") return base;
  if (name == "flash-crowd") {
    // A query storm on a handful of Zipf-popular keys, all submitted at
    // once: hot owners saturate their service queues.
    base.burst = true;
    base.hot_keys = 16;
    base.zipf_exponent = 1.2;
    base.sim.max_in_flight = 256;
    return base;
  }
  if (name == "rolling-churn") {
    // Continuous leave/join while lookups are in flight: stale links,
    // timeout-driven backtracking, message/crash races.
    base.churn.events = 8;
    base.churn.start_ms = span_ms / 10.0;
    base.churn.interval_ms = span_ms / 10.0;
    base.churn.leaves_per_event =
        std::max<size_t>(1, base.network_size / 50);
    base.churn.joins_per_event = base.churn.leaves_per_event;
    return base;
  }
  if (name == "regional-crash") {
    // 15% of the ring — one correlated region — vanishes mid-run.
    FaultSpec crash;
    crash.kind = FaultKind::kRegionCrash;
    crash.at_ms = span_ms * 0.4;
    crash.a = {KeyId::FromUnit(0.1), 0.15};
    base.faults.faults.push_back(crash);
    return base;
  }
  if (name == "message-loss") {
    base.sim.loss_rate = 0.05;
    base.sim.max_retries = 3;
    return base;
  }
  if (name == "slow-peers") {
    // Heterogeneous service rates: a tenth of the peers (picked by a
    // stable key hash) forward every message 50x slower. Lookups that
    // route through them inherit the degraded service time (plus the
    // queue that builds behind it), inflating the latency tail while
    // the median barely moves.
    base.sim.service_ms = 2.0;
    base.sim.slow_fraction = 0.1;
    base.sim.slow_multiplier = 50.0;
    return base;
  }
  // The hostile scenarios below layer a FaultPlan (and, by default,
  // virtual-time maintenance rounds) on the steady workload. Retry
  // budgets are kept tight so degraded routes actually fail instead of
  // grinding through — that is what makes recovery measurable.
  if (name == "partition-heal") {
    // A partial partition severs two third-of-the-ring regions from
    // each other for half the run (a full directed cut both ways), then
    // heals. Cross-cut lookups burn their single retry and fail; the
    // recovery table shows the dip and the re-crossing after the heal.
    base.sim.loss_rate = 0.03;
    base.sim.max_retries = 1;
    base.sim.timeout_ms = span_ms / 10.0;
    FaultSpec cut;
    cut.kind = FaultKind::kPartition;
    cut.at_ms = span_ms * 0.2;
    cut.duration_ms = span_ms * 0.5;
    cut.a = {KeyId::FromUnit(0.0), 0.35};
    cut.b = {KeyId::FromUnit(0.5), 0.35};
    cut.severity = 1.0;
    base.faults.faults.push_back(cut);
    if (base.maintenance_cadence_ms < 0.0) {
      base.maintenance_cadence_ms = span_ms / 10.0;
    }
    return base;
  }
  if (name == "repair-vs-churn") {
    // Lazy repair racing continuous churn plus a correlated crash,
    // under ambient loss with a single retry: stale routing tables
    // translate directly into retry-exhaustion failures, so pruning
    // and topping-up links measurably raises the success rate over the
    // same seed without maintenance.
    base.churn.events = 10;
    base.churn.start_ms = span_ms / 12.0;
    base.churn.interval_ms = span_ms / 12.0;
    base.churn.leaves_per_event =
        std::max<size_t>(1, base.network_size / 18);
    base.churn.joins_per_event = base.churn.leaves_per_event;
    base.sim.loss_rate = 0.10;
    base.sim.max_retries = 0;
    base.sim.timeout_ms = span_ms / 10.0;
    FaultSpec crash;
    crash.kind = FaultKind::kRegionCrash;
    crash.at_ms = span_ms * 0.3;
    crash.a = {KeyId::FromUnit(0.6), 0.12};
    base.faults.faults.push_back(crash);
    if (base.maintenance_cadence_ms < 0.0) {
      base.maintenance_cadence_ms = span_ms / 16.0;
    }
    return base;
  }
  if (name == "adversarial-hotkeys") {
    // Every popular key is owned by one small region (adversarial
    // placement), and mid-run that region becomes near-unreachable: a
    // DIRECTED cut drops 80% of transmissions INTO it from everywhere
    // while its own outbound traffic still flows. Almost all queries
    // need the region, so the dip is deep until the cut heals.
    base.hot_keys = 12;
    base.zipf_exponent = 1.1;
    base.hot_key_region_center = 0.3;
    base.hot_key_region_span = 0.1;
    base.sim.loss_rate = 0.03;
    base.sim.max_retries = 1;
    base.sim.timeout_ms = span_ms / 10.0;
    FaultSpec cut;
    cut.kind = FaultKind::kPartition;
    cut.at_ms = span_ms * 0.3;
    cut.duration_ms = span_ms * 0.3;
    cut.a = {KeyId::FromUnit(0.0), 1.0};  // Sources: the whole ring.
    cut.b = {KeyId::FromUnit(0.3), 0.1};  // Destinations: the hot region.
    cut.severity = 0.8;
    cut.symmetric = false;
    base.faults.faults.push_back(cut);
    if (base.maintenance_cadence_ms < 0.0) {
      base.maintenance_cadence_ms = span_ms / 10.0;
    }
    return base;
  }
  if (name == "cascade-slowdown") {
    // A slow burst over a third of the ring (queues build behind 20x
    // service times), and mid-burst the most loaded slice of the slowed
    // region crashes outright — the classic overload-then-collapse
    // cascade. The slow burst's TTR window overlaps the collapse, so
    // both rows report the same recovery tail measured from their own
    // injection time.
    base.sim.service_ms = 1.0;
    base.sim.loss_rate = 0.12;
    base.sim.max_retries = 1;
    base.sim.timeout_ms = span_ms / 10.0;
    FaultSpec slow;
    slow.kind = FaultKind::kSlowdown;
    slow.at_ms = span_ms * 0.2;
    slow.duration_ms = span_ms * 0.4;
    slow.a = {KeyId::FromUnit(0.65), 0.3};
    slow.severity = 20.0;
    base.faults.faults.push_back(slow);
    FaultSpec collapse;
    collapse.kind = FaultKind::kRegionCrash;
    collapse.at_ms = span_ms * 0.45;
    collapse.a = {KeyId::FromUnit(0.68), 0.18};
    base.faults.faults.push_back(collapse);
    // Overload mostly shows up as latency, not failure: a collapse that
    // costs "only" a tenth of the lookups still matters here, so the
    // dip detector runs tighter than the default 0.9.
    base.recovery_threshold = 0.92;
    if (base.maintenance_cadence_ms < 0.0) {
      base.maintenance_cadence_ms = span_ms / 8.0;
    }
    return base;
  }
  return Status::Error(StrCat("unknown scenario: '", name,
                              "' (see ScenarioCatalog)"));
}

Result<ScenarioResult> RunScenario(const std::string& name,
                                   const ScenarioOptions& base) {
  auto resolved = MakeScenarioOptions(name, base);  // Fail fast on names.
  if (!resolved.ok()) return resolved.status();
  auto grown = GrowScenarioTopology(base);
  if (!grown.ok()) return grown.status();
  return RunScenarioOn(name, base, grown.value());
}

Result<ScenarioResult> RunScenarioOn(const std::string& name,
                                     const ScenarioOptions& base,
                                     const GrownTopology& grown) {
  Network scratch;
  return RunScenarioOn(name, base, grown, &scratch);
}

Result<ScenarioResult> RunScenarioOn(const std::string& name,
                                     const ScenarioOptions& base,
                                     const GrownTopology& grown,
                                     Network* scratch) {
  auto resolved = MakeScenarioOptions(name, base);
  if (!resolved.ok()) return resolved.status();
  const ScenarioOptions& options = resolved.value();

  // Mutable restore of the shared frozen topology: churn happens here.
  // On a recycled scratch this is a delta repair of the peers the
  // previous scenario touched, not an O(N) rebuild.
  grown.snapshot.RestoreInto(scratch);
  // Scenario replays recycle the scratch across runs — exactly the
  // journal path the restore-identity audit exists for.
  if (AuditEnabled()) {
    const Status audit = grown.snapshot.CheckRestoreIdentity(*scratch);
    OSCAR_AUDIT(audit.ok(), "scenario delta restore: " + audit.message());
  }
  Network& net = *scratch;
  const OverlayPtr overlay = grown.overlay;
  const KeyDistributionPtr peer_keys = grown.keys;
  const DegreeDistributionPtr peer_degrees = grown.degrees;

  // A scenario-private stream, decoupled from the growth stream so the
  // same network can host different workloads comparably.
  Rng rng(options.seed ^ 0x0a02bdbf7bb3c0a7ULL);
  EventEngine engine;
  // The live fault switchboard the message engine consults; empty (and
  // free) unless the plan below arms rules mid-run.
  ActiveFaults active_faults;
  MessageSimOptions sim_options = options.sim;
  sim_options.faults = &active_faults;
  MessageSim sim(&engine, &net, sim_options, &rng);

  // Workload: (source, key) pairs drawn up-front in submit order.
  KeyDistributionPtr query_keys = peer_keys;
  if (options.hot_keys > 0) {
    std::vector<KeyId> hot;
    hot.reserve(options.hot_keys);
    for (size_t i = 0; i < options.hot_keys; ++i) {
      if (options.hot_key_region_span > 0.0) {
        // Adversarial placement: the whole hot set inside one segment.
        hot.push_back(KeyId::FromUnit(options.hot_key_region_center +
                                      rng.NextDouble() *
                                          options.hot_key_region_span));
      } else {
        hot.push_back(peer_keys->Sample(&rng));
      }
    }
    query_keys = std::make_shared<ZipfHotKeys>(std::move(hot),
                                               options.zipf_exponent);
  }
  SearchOptions query_options;
  query_options.query_distribution = query_keys.get();
  const std::vector<PeerId> alive = net.AlivePeers();
  if (alive.empty()) return Status::Error("scenario: empty network");
  SimTime at = 0.0;
  for (size_t q = 0; q < options.lookups; ++q) {
    const QuerySample query = SampleQuery(net, query_options, alive, &rng);
    sim.SubmitLookupAt(at, query.source, query.key);
    if (!options.burst) {
      at += -options.arrival_interval_ms * std::log(1.0 - rng.NextDouble());
    }
  }

  ChurnScheduleReport churn_report;
  const RebuildFn rebuild = [overlay](Network* n, PeerId id, Rng* r) {
    return overlay->BuildLinks(n, id, r);
  };
  if (options.churn.events > 0) {
    ScheduleChurn(&engine, &net, options.churn, *peer_keys, *peer_degrees,
                  rebuild, &rng, &churn_report);
  }
  // Injected faults: crashes through the churn hook, partitions and
  // slowdowns through the switchboard. Trace rows (kFaultInject /
  // kFaultHeal) go to the structured sink when one is attached.
  FaultInjector injector(&engine, &net, &active_faults, options.sim.sink);
  if (!options.faults.empty()) injector.Schedule(options.faults);

  // Virtual-time maintenance rounds racing everything above. A private
  // forked stream keeps repair draws out of the churn/workload streams,
  // so with- and without-maintenance runs of one seed share every other
  // draw — the comparison the repair-vs-churn acceptance rests on. The
  // schedule is bounded (rounds through twice the arrival span) rather
  // than self-rescheduling, so it cannot keep the engine alive forever.
  const double span_ms =
      static_cast<double>(options.lookups) * options.arrival_interval_ms;
  std::vector<MaintenanceRoundRecord> maintenance_rounds;
  Status maintenance_status;
  std::unique_ptr<Maintainer> maintainer;
  std::unique_ptr<Rng> maintenance_rng;
  if (options.maintenance_cadence_ms > 0.0) {
    maintainer = std::make_unique<Maintainer>(overlay, MaintenanceOptions{});
    maintenance_rng =
        std::make_unique<Rng>(options.seed ^ 0x413b8e2d5f7c6a19ULL);
    Maintainer* m = maintainer.get();
    Rng* mr = maintenance_rng.get();
    TraceSink* sink = options.sim.sink;
    size_t rounds = 0;
    for (double at = options.maintenance_cadence_ms;
         at <= 2.0 * span_ms && rounds < 10000;
         at += options.maintenance_cadence_ms, ++rounds) {
      engine.ScheduleAt(at, [m, mr, sink, &net, &engine,
                             &maintenance_rounds, &maintenance_status] {
        auto round = m->RunRound(&net, mr);
        if (!round.ok()) {
          if (maintenance_status.ok()) maintenance_status = round.status();
          return;
        }
        // A round crashes nothing but prunes and rebuilds links around
        // every crash so far: the dangling counts move most here.
        if (AuditEnabled()) {
          const Status audit = net.CheckInvariants();
          OSCAR_AUDIT(audit.ok(), "scenario maintenance round: " +
                                      audit.message());
        }
        maintenance_rounds.push_back({engine.now(), round.value()});
        if (sink != nullptr) {
          TraceEvent event;
          event.t_us = TraceTimeUs(engine.now());
          event.kind = TraceKind::kMaintRound;
          event.lookup = kTraceNone;
          event.peer = static_cast<uint32_t>(round.value().pruned_links);
          event.to = static_cast<uint32_t>(round.value().rebuilt_peers);
          event.info = static_cast<uint32_t>(round.value().sampling_steps);
          sink->Append(event);
        }
      });
    }
  }

  // Backstop against a runaway handler loop; generously above any
  // legitimate event count (a lookup is a few events per hop).
  const size_t max_events = 200000 + 4000 * options.lookups;
  engine.Run(max_events);
  if (!churn_report.status.ok()) return churn_report.status;
  if (!injector.status().ok()) return injector.status();
  if (!maintenance_status.ok()) return maintenance_status;

  ScenarioResult result;
  result.name = name;
  result.options = options;
  result.report = sim.Report();
  size_t fault_crashed = 0;
  for (const InjectedFault& fault : injector.injected()) {
    fault_crashed += fault.crashed;
  }
  result.crashed = churn_report.left + fault_crashed;
  result.joined = churn_report.joined;
  result.events_dispatched = engine.dispatched();
  result.end_ms = engine.now();
  RecoveryOptions recovery_options;
  recovery_options.window =
      std::min<size_t>(50, std::max<size_t>(8, options.lookups / 8));
  recovery_options.threshold = options.recovery_threshold;
  result.recovery =
      ComputeRecovery(sim.outcomes(), injector.injected(), recovery_options);
  result.maintenance = std::move(maintenance_rounds);
  for (const MaintenanceRoundRecord& round : result.maintenance) {
    result.maintenance_sampling_steps += round.report.sampling_steps;
  }
  return result;
}

Result<size_t> CrossCheckMessageVsSync(const ScenarioOptions& base) {
  auto grown = GrowScenarioTopology(base);
  if (!grown.ok()) return grown.status();
  return CrossCheckMessageVsSync(base, grown.value());
}

Result<size_t> CrossCheckMessageVsSync(const ScenarioOptions& base,
                                       const GrownTopology& grown) {
  // Crash a slice so dead probes and backtracking are part of the
  // comparison, not just clean greedy descent.
  Network net = grown.snapshot.Restore();
  Rng crash_rng(base.seed ^ 0x517cc1b727220a95ULL);
  auto crashed = CrashFraction(&net, 0.15, &crash_rng);
  if (!crashed.ok()) return crashed.status();

  // Synchronous side: per-query routes recorded via the observer.
  SearchOptions search;
  search.num_queries = base.lookups;
  search.query_distribution = grown.keys.get();
  struct PerQuery {
    uint32_t hops;
    uint32_t wasted;
    bool success;
  };
  std::vector<PerQuery> sync_routes;
  sync_routes.reserve(base.lookups);
  search.per_route = [&sync_routes](const RouteResult& route) {
    sync_routes.push_back({route.hops, route.wasted, route.success});
  };
  const uint64_t query_seed = base.seed ^ 0x2545f4914f6cdd1dULL;
  Rng sync_rng(query_seed);
  EvaluateSearch(net, Routing::kBacktracking, search, &sync_rng);

  // Message side: the identical query stream (same seed, same draw
  // order; routing consumes no rng) through the event engine at zero
  // latency, one lookup in flight at a time.
  Network message_net = net;
  EventEngine engine;
  MessageSimOptions sim_options = base.sim;
  sim_options.zero_latency = true;
  sim_options.service_ms = 0.0;
  sim_options.loss_rate = 0.0;
  sim_options.max_in_flight = 1;
  Rng sim_rng(base.seed ^ 0x9e6c63d0876a9a47ULL);
  MessageSim sim(&engine, &message_net, sim_options, &sim_rng);
  Rng replay_rng(query_seed);
  const std::vector<PeerId> alive = message_net.AlivePeers();
  if (alive.empty()) return Status::Error("cross-check: empty network");
  for (size_t q = 0; q < base.lookups; ++q) {
    const QuerySample query = SampleQuery(message_net, search, alive,
                                          &replay_rng);
    sim.SubmitLookupAt(0.0, query.source, query.key);
  }
  engine.Run(200000 + 4000 * base.lookups);

  const std::vector<LookupOutcome>& outcomes = sim.outcomes();
  if (outcomes.size() != sync_routes.size()) {
    return Status::Error(StrCat("cross-check: query counts differ: sync=",
                                sync_routes.size(),
                                " message=", outcomes.size()));
  }
  for (size_t q = 0; q < outcomes.size(); ++q) {
    const LookupOutcome& out = outcomes[q];
    const PerQuery& ref = sync_routes[q];
    if (!out.finished) {
      return Status::Error(StrCat("cross-check: lookup ", q, " unfinished"));
    }
    if (out.hops != ref.hops || out.wasted != ref.wasted ||
        out.success != ref.success) {
      return Status::Error(StrCat(
          "cross-check: query ", q, " diverged: sync(hops=", ref.hops,
          " wasted=", ref.wasted, " success=", ref.success,
          ") message(hops=", out.hops, " wasted=", out.wasted,
          " success=", out.success, ")"));
    }
  }
  return outcomes.size();
}

}  // namespace oscar
