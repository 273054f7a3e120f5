// Fault injection in virtual time: a FaultPlan is a declarative list
// of faults (correlated region crashes, partial partitions, slow-peer
// bursts) that a FaultInjector schedules on the discrete-event engine
// mid-scenario. Crashes go through the existing churn hook
// (CrashSegment) and partitions/slowdowns through the ActiveFaults
// switchboard the message engine already consults — no fault consumes
// an rng draw at injection time, so arming a plan never perturbs the
// workload or churn streams.
//
// Plans are either built programmatically (the hostile scenarios in
// sim/scenario.cc) or parsed from the compact CLI spec:
//
//   plan  := fault (';' fault)*
//   fault := crash '@' AT ':' CENTER ',' SPAN
//          | partition '@' AT '+' DUR ':' SRC_C ',' SRC_S ','
//                                         DST_C ',' DST_S [',' LOSS]
//          | slow '@' AT '+' DUR ':' CENTER ',' SPAN [',' MULT]
//
// Times are virtual ms, centers/spans are unit-ring fractions, LOSS
// defaults to 1.0 (a full cut), MULT to 25. AT and AT + DUR may not
// exceed kMaxFaultTimeMs. Partitions are injected symmetrically (both
// directions of the region pair); a directed cut is available
// programmatically via FaultSpec::symmetric = false.

#ifndef OSCAR_SIM_FAULT_PLAN_H_
#define OSCAR_SIM_FAULT_PLAN_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/network.h"
#include "sim/event_engine.h"
#include "sim/fault_state.h"
#include "trace/trace.h"

namespace oscar {

/// The latest time a parsed fault may inject or heal at, in virtual ms
/// (about 31.7 years). The trace renders every time up to it exactly,
/// and the engine's times stay finite.
constexpr double kMaxFaultTimeMs = 1e12;

enum class FaultKind {
  kRegionCrash,  // CrashSegment of region `a` at `at_ms` (no heal).
  kPartition,    // Directed loss a->b (and b->a when symmetric).
  kSlowdown,     // Service multiplier over region `a`.
};

struct FaultSpec {
  FaultKind kind = FaultKind::kRegionCrash;
  double at_ms = 0.0;
  /// Partitions and slowdowns heal at `at_ms + duration_ms`;
  /// duration_ms <= 0 means they persist to the end of the run.
  /// Crashes are permanent by nature.
  double duration_ms = 0.0;
  RegionSpec a;  // Crash region / partition source / slow region.
  RegionSpec b;  // Partition destination (unused otherwise).
  /// Loss probability (partitions) or service multiplier (slowdowns).
  double severity = 1.0;
  /// Inject the b->a direction too (the CLI parser always does).
  bool symmetric = true;

  /// Stable human-readable tag ("partition@120+300", "crash@80") used
  /// in recovery tables and trace scopes.
  std::string Label() const;
};

struct FaultPlan {
  std::vector<FaultSpec> faults;
  bool empty() const { return faults.empty(); }
};

/// Parses the CLI spec above. Malformed specs (unknown kind, missing
/// '@', non-numeric or out-of-range fields, a time past
/// kMaxFaultTimeMs) return an error naming the offending fault.
Result<FaultPlan> ParseFaultPlan(const std::string& spec);

/// One fault as it actually landed: injection bookkeeping the recovery
/// metrics and the scenario tables read back.
struct InjectedFault {
  size_t index = 0;     // Position in the plan.
  std::string label;
  double at_ms = 0.0;
  double heal_ms = -1.0;  // < 0: never heals (crashes, open-ended rules).
  size_t crashed = 0;     // Peers a region crash took down.
};

/// Schedules a plan's faults on the engine. Injection handlers crash
/// regions via the churn hook and arm/disarm rules in `active`; each
/// fires a kFaultInject / kFaultHeal trace row through `sink` (may be
/// null). All borrowed pointers must outlive the engine run.
class FaultInjector {
 public:
  FaultInjector(EventEngine* engine, Network* net, ActiveFaults* active,
                TraceSink* sink)
      : engine_(engine), net_(net), active_(active), sink_(sink) {}

  /// Schedules every fault in `plan`. Call once, before engine.Run().
  void Schedule(const FaultPlan& plan);

  /// Injection records in plan order (final once the engine drained).
  const std::vector<InjectedFault>& injected() const { return injected_; }

  /// First CrashSegment failure, if any (later faults still fire).
  const Status& status() const { return status_; }

 private:
  void Inject(size_t index, const FaultSpec& spec);
  void Heal(size_t index, const FaultSpec& spec);
  void Emit(TraceKind kind, size_t index);

  EventEngine* engine_;
  Network* net_;
  ActiveFaults* active_;
  TraceSink* sink_;
  std::vector<InjectedFault> injected_;
  Status status_;
};

}  // namespace oscar

#endif  // OSCAR_SIM_FAULT_PLAN_H_
