// Message-level lookup simulation on the discrete-event engine. Every
// lookup is an individual query message advanced one hop at a time by a
// BacktrackingStepper (fault-aware greedy); hops are priced by the
// latency model, forwarding passes through a per-peer FIFO (one message
// in service at a time, so load queues), and undelivered messages —
// lost, or sent to a peer that crashed while they were in flight — are
// discovered by ack timeout and retried or routed around, never by
// oracle.
//
// Modeling notes (all deterministic under a fixed seed):
//  - Ack timeouts are only scheduled for transmissions that actually
//    fail; a delivered message acks instantly and for free. This is
//    equivalent to always scheduling the timeout and cancelling it on
//    ack, with far fewer events (and no cancellation in the engine).
//  - A peer that crashes with messages queued drains them one service
//    slot at a time; each drained message takes the same timeout path
//    its sender would have observed.
//  - A lookup holds its route state (stepper and pending transmission)
//    only while active. A finished lookup's record goes to a spare list
//    and the next activation resets and restarts it, so a run allocates
//    at most max_in_flight of them, and their visited sets keep their
//    tables. Start resets every field a route reads, so reuse cannot
//    change an outcome.
//  - A peer's service FIFO is intrusive: the peer holds its head, tail
//    and depth, and each queued lookup links to the next. A lookup has
//    one message, so it waits in at most one queue, and it stays active
//    while it does, so the link lives in its route record. An idle peer
//    costs no queue allocation.
//  - The hop delay to a peer is LatencyModel::DelayForKey of its key,
//    computed on the first transmission to it and memoized in its
//    per-peer state: a peer id's key never changes (joins append ids).

#ifndef OSCAR_SIM_MESSAGE_SIM_H_
#define OSCAR_SIM_MESSAGE_SIM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/string_util.h"
#include "core/network.h"
#include "core/rng.h"
#include "metrics/message_metrics.h"
#include "routing/route_stepper.h"
#include "sim/event_engine.h"
#include "sim/fault_state.h"
#include "sim/latency_model.h"
#include "trace/trace.h"

namespace oscar {

// Per-hop delays come from LatencyModel::DelayForKey, and each dead
// probe costs LatencyModel::kDeadProbeMs.
struct MessageSimOptions {
  /// Zero every transmission delay (the synchronous cross-check mode).
  bool zero_latency = false;
  /// Time a peer spends forwarding one message; queueing delay emerges
  /// when messages arrive faster than 1/service_ms.
  double service_ms = 0.1;
  /// Heterogeneous service rates: this fraction of peers serve every
  /// message `slow_multiplier` times slower. Membership is a pure
  /// function of the peer's ring key (no rng draws, stable across
  /// joins), so enabling it does not perturb any other random stream.
  double slow_fraction = 0.0;
  double slow_multiplier = 5.0;
  /// Ack timeout: how long a sender waits before declaring a
  /// transmission failed (lost or sent to a crashed peer).
  double timeout_ms = 500.0;
  /// Resends of one transmission before the whole lookup fails.
  uint32_t max_retries = 2;
  /// Probability an individual transmission is lost in the network.
  double loss_rate = 0.0;
  /// Live fault switchboard (borrowed; may be null). Armed partition
  /// rules raise the loss of matching transmissions above `loss_rate`;
  /// armed slowdown rules multiply the service time of matching peers.
  /// An empty switchboard changes nothing — rule checks are pure key
  /// functions and a 0.0 effective loss draws no rng, so attaching one
  /// perturbs no stream until a fault actually fires.
  const ActiveFaults* faults = nullptr;
  /// Admission cap on concurrently active lookups; excess submissions
  /// wait in an admission backlog (their wait counts toward latency).
  size_t max_in_flight = 64;
  /// Optional structured trace sink (CSV, columnar `.otrace`, ...);
  /// every lookup-lifecycle event streams through it as it fires, so a
  /// long run is analyzable without holding its trace in RAM. Detached
  /// (nullptr) tracing costs one branch per would-be event.
  TraceSink* sink = nullptr;
  /// Cadence (virtual ms) of the queue-depth / in-flight timeline
  /// samples emitted while tracing: every tick records the active and
  /// backlogged lookup counts plus every nonempty per-peer service
  /// queue. 0 disables sampling; so does a detached trace. The sampler
  /// reads state only (no rng draws, no mutations), so enabling it
  /// never perturbs outcomes.
  double queue_depth_cadence_ms = 0.0;
};

/// Per-lookup record, final once `finished`.
struct LookupOutcome {
  uint64_t id = 0;
  PeerId source = 0;
  KeyId target;
  bool finished = false;
  bool success = false;
  uint32_t hops = 0;
  uint32_t wasted = 0;       // Route-level waste (probes, backtracks).
  uint32_t retries = 0;      // Transmissions re-sent after loss.
  SimTime submitted_ms = 0.0;
  SimTime completed_ms = 0.0;
  double latency_ms = 0.0;   // completed - submitted (includes backlog).
};

struct MessageSimReport {
  size_t submitted = 0;
  size_t completed = 0;
  size_t succeeded = 0;
  double success_rate = 0.0;
  LatencySummary latency;
  double mean_hops = 0.0;
  double mean_wasted = 0.0;
  uint64_t messages_sent = 0;   // Every transmission, retries included.
  uint64_t lost_messages = 0;
  uint64_t timeouts = 0;        // Ack timeouts fired.
  uint64_t retries = 0;
  size_t peak_in_flight = 0;
  double mean_in_flight = 0.0;
  PeerLoadSummary peer_load;    // Messages serviced per peer.
};

class MessageSim {
 public:
  /// `engine`, `net` and `rng` must outlive the sim; the network may be
  /// mutated between events (event-scheduled churn) — liveness is
  /// re-checked at every service and delivery.
  MessageSim(EventEngine* engine, Network* net,
             const MessageSimOptions& options, Rng* rng);

  /// Schedules a lookup for `target` starting at `source` at virtual
  /// time `at` (clamped to now). Returns the lookup id.
  uint64_t SubmitLookupAt(SimTime at, PeerId source, KeyId target);

  const std::vector<LookupOutcome>& outcomes() const { return outcomes_; }
  size_t active_lookups() const { return active_; }

  /// Aggregates everything observed so far (valid mid-run too).
  MessageSimReport Report() const;

  /// The transmission delay to `to`: LatencyModel::DelayForKey of its
  /// key, memoized per peer, or 0 under zero_latency.
  double HopDelayMs(PeerId to);

 private:
  // The state of an active lookup: its route, and its one message's
  // current transmission. A lookup has exactly one message at a time
  // (queued, in service, in flight or awaiting an ack timeout), so the
  // pending fields hold from a send until its delivery or timeout.
  struct Lookup {
    BacktrackingStepper stepper;
    uint32_t hop_attempts = 0;  // Resends of the current transmission.
    PeerId pending_from = 0;    // Sender of the in-flight transmission.
    PeerId pending_dest = 0;    // Its destination.
    SimTime sent_at = 0.0;      // When it left (after any dead probes).
    uint64_t next_queued = 0;   // The lookup behind it in a service FIFO.
  };

  // A peer's service FIFO (its head is in service, so the peer is busy
  // exactly while depth > 0) and its memoized hop delay.
  struct PeerState {
    uint64_t head = 0;
    uint64_t tail = 0;
    uint32_t depth = 0;
    double hop_delay_ms = -1.0;  // Negative until the first transmission.
  };

  void Admit(uint64_t id);
  void Activate(uint64_t id);
  void EnqueueAt(uint64_t id, PeerId peer);
  void BeginService(PeerId peer);
  void EndService(PeerId peer);
  void ProcessAt(uint64_t id, PeerId peer);
  void Transmit(uint64_t id, PeerId from, PeerId to, double extra_delay_ms);
  void HandleTimeout(uint64_t id);
  void Finish(uint64_t id);
  /// Emits one structured event to the attached sink. Pass kTraceNone
  /// for an absent peer/to column (0 is a real peer id). The null-sink
  /// test is the whole cost of a detached trace.
  void Emit(TraceKind kind, uint64_t lookup, uint32_t peer, uint32_t to,
            uint32_t info) {
    if (options_.sink == nullptr) return;
    TraceEvent event;
    event.t_us = TraceTimeUs(engine_->now());
    event.kind = kind;
    event.lookup = static_cast<uint32_t>(lookup);
    event.peer = peer;
    event.to = to;
    event.info = info;
    options_.sink->Append(event);
  }
  /// Schedules the first timeline sample if tracing wants one and none
  /// is pending; SampleTimelines reschedules itself while work remains.
  void ArmSampler();
  void SampleTimelines();
  void SendPending(uint64_t id, double extra_delay_ms);
  void Deliver(uint64_t id);
  /// Per-message service time of `peer` (slow peers pay the multiplier).
  double ServiceMsFor(PeerId peer) const;
  PeerState& peer_state(PeerId peer);

  EventEngine* engine_;
  Network* net_;
  MessageSimOptions options_;
  Rng* rng_;

  bool sampler_armed_ = false;

  // Indexed by lookup id; set only while the lookup is active, so an
  // idle lookup costs one pointer.
  std::vector<std::unique_ptr<Lookup>> lookups_;
  // Records of finished lookups, reused by the next activations (their
  // steppers' tables and buffers included), so at most max_in_flight
  // are ever allocated.
  std::vector<std::unique_ptr<Lookup>> spare_;
  std::vector<LookupOutcome> outcomes_;  // Parallel to lookups_.
  std::deque<uint64_t> backlog_;         // Admission queue.
  std::vector<PeerState> peers_;
  std::vector<uint64_t> peer_load_;      // Messages serviced per peer.
  ConcurrencyTracker concurrency_;
  size_t active_ = 0;
  uint64_t messages_sent_ = 0;
  uint64_t lost_messages_ = 0;
  uint64_t timeouts_ = 0;
  uint64_t retries_ = 0;
};

}  // namespace oscar

#endif  // OSCAR_SIM_MESSAGE_SIM_H_
