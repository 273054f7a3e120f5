// Open-loop lookup firehose over a frozen TopologySnapshot, in two
// phases with very different clocks:
//
// 1. ROUTE (wall-clock parallel, virtual-time free). Every lookup's
//    (source, target key) pair is drawn from its own counter-forked
//    rng stream — Rng::Fork(seed, stream, lookup) — and routed over
//    the shared snapshot by a per-worker greedy stepper on the
//    common/thread_pool worker pool. A frozen snapshot is read-only,
//    so the fan-out is embarrassingly parallel and, because every
//    result lands in its own per-index slot and the per-lookup streams
//    consume nothing from each other, the routed outcomes are
//    identical at any OSCAR_THREADS. This phase is the raw-throughput
//    measurement: routed lookups per wall second.
//
// 2. SERVE (sequential, virtual-time). The routed lookups are replayed
//    through a deterministic queueing model per (offered rate,
//    admission policy) sweep cell: token-bucket arrivals (open loop —
//    arrivals never wait for completions), a FIFO wait queue feeding
//    `concurrency` virtual service slots, service time priced from the
//    route's message count, and the admission policy deciding at each
//    arrival (and each dequeue, for deadline shedding) what to refuse.
//    Everything here is arithmetic over the phase-1 results, so the
//    summary table is byte-identical across thread counts and runs.
//
// Splitting the clocks is what reconciles "drive millions of lookups
// across a worker pool" with "byte-identical summaries": wall time
// only ever appears in the throughput line (stderr), never in the
// summary rows. Every latency digest comes from one LogHistogram
// filled in index order after the fan-out, so no digest depends on
// which worker routed which lookup.

#ifndef OSCAR_SERVE_LOAD_GENERATOR_H_
#define OSCAR_SERVE_LOAD_GENERATOR_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/topology_snapshot.h"
#include "serve/admission.h"
#include "trace/trace.h"

namespace oscar {

/// Percentile digest of one latency histogram.
struct LatencyReport {
  uint64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;
};

struct ServeOptions {
  size_t lookups = 1000000;  // Routed once, replayed per sweep cell.
  uint64_t seed = 42;
  uint32_t threads = 1;      // Route-phase worker pool width.

  // Sweep axes: every offered rate crossed with every policy name.
  // Rate <= 0 means rate limiting off (all arrivals at t = 0).
  std::vector<double> offered_rates_per_s = {4000.0, 16000.0, 0.0};
  std::vector<std::string> policies = {"none", "drop-tail", "timeout",
                                       "peer-cap"};

  double burst = 64.0;       // Token-bucket depth (arrival clumping).
  size_t concurrency = 64;   // Virtual service slots.
  double hop_ms = 1.0;       // Service cost per routed message.
  AdmissionOptions admission;

  // Query-key skew: 0 = uniform keys; > 0 = that many hot keys under
  // a Zipf(zipf_exponent) popularity law (hot keys are drawn from the
  // snapshot's alive peers, so each has a real owner to overload).
  size_t hot_keys = 0;
  double zipf_exponent = 1.1;

  // Observability: with a sink attached, every sweep cell emits a
  // virtual-time admission/queue-depth timeline — wait-queue depth,
  // busy service slots, and cumulative dropped/shed counts sampled at
  // least `trace_cadence_ms` of virtual time apart, each cell under its
  // own "serve rate=<r> policy=<p>" scope. The sweep is sequential
  // virtual-time arithmetic, so the trace inherits its byte-determinism
  // across OSCAR_THREADS. Detached (nullptr) = zero events, one branch
  // per arrival. The wall-clock-parallel route phase is never traced.
  TraceSink* trace = nullptr;
  double trace_cadence_ms = 10.0;
};

/// One (offered rate, policy) sweep cell. All fields are virtual-time
/// deterministic.
struct ServeCellReport {
  double offered_per_s = 0.0;  // 0 = rate limiting off (burst at t=0).
  std::string policy;
  size_t submitted = 0;
  size_t admitted = 0;   // Passed admission at arrival.
  size_t dropped = 0;    // Refused at arrival (submitted - admitted).
  size_t shed = 0;       // Admitted but timed out waiting in queue.
  size_t completed = 0;  // Reached a service slot and finished.
  size_t succeeded = 0;  // Completed AND the route delivered.
  double achieved_per_s = 0.0;  // completed / virtual makespan.
  double queue_peak = 0.0;      // Deepest the wait queue ever got.
  LatencyReport latency;        // Arrival -> service completion.
};

struct ServeReport {
  // Route phase.
  size_t routed = 0;
  double route_success_rate = 0.0;
  double mean_messages = 0.0;      // Hops + wasted, the service driver.
  LatencyReport service;           // Pure service time, no queueing.
  double route_wall_s = 0.0;       // Wall clock: NOT deterministic.
  double route_lookups_per_s = 0.0;  // Wall clock: NOT deterministic.

  // Serve phase: offered_rates x policies, rates-major order.
  std::vector<ServeCellReport> cells;
  size_t total_submitted = 0;  // Sum over cells.
};

class LoadGenerator {
 public:
  /// The snapshot must stay alive for the generator's lifetime.
  LoadGenerator(const TopologySnapshot& snapshot, ServeOptions options);

  /// Routes the lookup stream once, then sweeps every (rate, policy)
  /// cell. Errors on an empty snapshot, an empty sweep axis, or an
  /// unknown policy name.
  Result<ServeReport> Run();

 private:
  struct RoutedLookup {
    uint32_t messages = 0;  // hops + wasted (the service cost driver).
    PeerId owner = 0;       // Owner of the target key at freeze time.
    bool success = false;
  };

  void RoutePhase(ServeReport* report);
  ServeCellReport ServeCell(double offered_per_s,
                            const AdmissionPolicy& policy,
                            const std::vector<double>& arrivals_ms) const;
  double ServiceMs(const RoutedLookup& lookup) const {
    // A self-owned lookup (zero messages) still burns a slot for one
    // message time: admission must cost something or the model admits
    // infinite free work.
    return options_.hop_ms *
           static_cast<double>(lookup.messages == 0 ? 1 : lookup.messages);
  }

  const TopologySnapshot& snapshot_;
  ServeOptions options_;
  std::vector<RoutedLookup> routed_;
};

}  // namespace oscar

#endif  // OSCAR_SERVE_LOAD_GENERATOR_H_
