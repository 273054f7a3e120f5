// Named workload scenarios for the message-level simulator: grow a
// network, submit a lookup stream, schedule failures, run the event
// engine, report. The catalog covers the traffic patterns the paper's
// synchronous figures cannot express — flash-crowd bursts on Zipf-hot
// keys, rolling churn racing in-flight lookups, correlated regional
// crashes, and lossy transport with retries.

#ifndef OSCAR_SIM_SCENARIO_H_
#define OSCAR_SIM_SCENARIO_H_

#include <string>
#include <vector>

#include "churn/churn.h"
#include "common/status.h"
#include "core/topology_snapshot.h"
#include "keyspace/key_distribution.h"
#include "metrics/recovery_metrics.h"
#include "overlay/maintenance.h"
#include "overlay/overlay.h"
#include "sim/fault_plan.h"
#include "sim/message_sim.h"

namespace oscar {

struct ScenarioOptions {
  size_t network_size = 600;
  size_t lookups = 600;
  uint64_t seed = 42;
  std::string overlay = "oscar";
  std::string keys = "gnutella";
  std::string degrees = "realistic";
  MessageSimOptions sim;

  // Arrival process.
  bool burst = false;  // Everything submitted at t=0 (flash crowd).
  double arrival_interval_ms = 5.0;  // Mean exponential inter-arrival.

  // Query-key skew: when hot_keys > 0, queries target a fixed set of
  // `hot_keys` keys under a Zipf(zipf_exponent) popularity law instead
  // of following the peer key distribution.
  size_t hot_keys = 0;
  double zipf_exponent = 1.1;

  // Rolling churn (events == 0 disables it).
  ChurnScheduleOptions churn;

  // Injected faults (region crashes, partial partitions, slow bursts)
  // scheduled in virtual time by a FaultInjector. regional-crash and
  // the hostile scenarios define their own plans; a caller-supplied plan (the --fault-plan
  // flag) is injected IN ADDITION to the scenario's.
  FaultPlan faults;

  // Virtual-time maintenance rounds racing the workload: < 0 lets the
  // scenario pick (hostile scenarios enable repair, legacy ones don't),
  // 0 forces maintenance off, > 0 runs Maintainer::RunRound every this
  // many virtual ms, with the default MaintenanceOptions. Rounds draw
  // from a private rng stream, so turning them on never perturbs the
  // churn or workload draws — the with/without comparison is
  // apples-to-apples.
  double maintenance_cadence_ms = -1.0;

  // Adversarial hot-key placement: when hot_keys > 0 and this span is
  // positive, the hot set is drawn uniformly inside the clockwise ring
  // segment [center, center + span) instead of from the peer
  // distribution — every popular key lands on one region's owners.
  double hot_key_region_center = 0.0;
  double hot_key_region_span = 0.0;

  // Recovery dip threshold (see metrics/recovery_metrics.h). The
  // success-rate window auto-scales to lookups/8, clamped to [8, 50].
  double recovery_threshold = 0.9;
};

/// One maintenance round as it ran, in virtual-time order.
struct MaintenanceRoundRecord {
  double at_ms = 0.0;
  MaintenanceReport report;
};

struct ScenarioResult {
  std::string name;
  ScenarioOptions options;  // As resolved for the run.
  MessageSimReport report;
  size_t crashed = 0;  // Churn + fault-plan crashes.
  size_t joined = 0;
  uint64_t events_dispatched = 0;
  SimTime end_ms = 0.0;
  /// Per-fault recovery records (empty when no faults were injected).
  RecoveryReport recovery;
  /// Maintenance rounds that ran, in time order (empty when disabled).
  std::vector<MaintenanceRoundRecord> maintenance;
  /// Total repair bandwidth: the sampling-step ledger delta summed over
  /// all maintenance rounds.
  uint64_t maintenance_sampling_steps = 0;
};

/// The named scenarios, in catalog order.
const std::vector<std::string>& ScenarioCatalog();

/// Applies the named scenario's deltas on top of `base` (which carries
/// the scale, seed and sim knobs the caller resolved from env/flags).
/// No scenario changes the growth parameters (size/seed/overlay/keys/
/// degrees), so one grown topology serves the whole catalog.
Result<ScenarioOptions> MakeScenarioOptions(const std::string& name,
                                            ScenarioOptions base);

/// A network grown once and frozen, plus the strategy objects churn
/// handlers keep borrowing: the reusable input every scenario replay
/// restores its private mutable copy from.
struct GrownTopology {
  TopologySnapshot snapshot;
  OverlayPtr overlay;
  KeyDistributionPtr keys;
  DegreeDistributionPtr degrees;
};

/// Grows the network deterministically from base.seed and freezes it.
/// Growth depends only on the base options, never on a scenario's
/// deltas — the grow-once contract `oscar_sim --scenarios` relies on.
Result<GrownTopology> GrowScenarioTopology(const ScenarioOptions& base);

/// Runs the named scenario's workload against a restore of `grown`,
/// leaving the snapshot untouched for the next scenario.
Result<ScenarioResult> RunScenarioOn(const std::string& name,
                                     const ScenarioOptions& base,
                                     const GrownTopology& grown);

/// As above, but restoring into a caller-owned scratch network that is
/// recycled across scenarios: the snapshot's delta restore repairs only
/// the peers the previous scenario's churn touched (O(touched), nothing
/// for churn-free scenarios) instead of rebuilding all N peer rows.
/// Results are identical to the scratch-free overload.
Result<ScenarioResult> RunScenarioOn(const std::string& name,
                                     const ScenarioOptions& base,
                                     const GrownTopology& grown,
                                     Network* scratch);

/// Convenience: GrowScenarioTopology + RunScenarioOn for one-off runs.
Result<ScenarioResult> RunScenario(const std::string& name,
                                   const ScenarioOptions& base);

/// Equivalence gate between the two engines: restores the grown
/// network, crashes a fraction of it, routes the same query stream
/// once through the synchronous EvaluateSearch and once through
/// MessageSim in zero-latency single-lookup mode, and requires
/// per-query hops, wasted messages and success to match exactly.
/// Returns the number of queries compared, or an error naming the
/// first mismatch.
Result<size_t> CrossCheckMessageVsSync(const ScenarioOptions& base,
                                       const GrownTopology& grown);

/// Convenience: grows its own topology first.
Result<size_t> CrossCheckMessageVsSync(const ScenarioOptions& base);

}  // namespace oscar

#endif  // OSCAR_SIM_SCENARIO_H_
