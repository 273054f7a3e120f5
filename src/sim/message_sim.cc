#include "sim/message_sim.h"

#include <utility>

namespace oscar {

MessageSim::MessageSim(EventEngine* engine, Network* net,
                       const MessageSimOptions& options, Rng* rng)
    : engine_(engine), net_(net), options_(options), rng_(rng) {}

void MessageSim::ArmSampler() {
  if (sampler_armed_ || options_.sink == nullptr ||
      options_.queue_depth_cadence_ms <= 0.0) {
    return;
  }
  sampler_armed_ = true;
  engine_->ScheduleAfter(options_.queue_depth_cadence_ms,
                         [this] { SampleTimelines(); });
}

void MessageSim::SampleTimelines() {
  Emit(TraceKind::kInFlight, kTraceNone, kTraceNone,
       static_cast<uint32_t>(backlog_.size()),
       static_cast<uint32_t>(active_));
  for (PeerId peer = 0; peer < peers_.size(); ++peer) {
    const uint32_t depth = peers_[peer].depth;
    if (depth > 0) {
      Emit(TraceKind::kQueueDepth, kTraceNone, peer, kTraceNone, depth);
    }
  }
  // Keep ticking only while lookups are live — a free-running sampler
  // would keep the event queue nonempty forever. Re-armed on the next
  // admission otherwise.
  if (active_ > 0 || !backlog_.empty()) {
    engine_->ScheduleAfter(options_.queue_depth_cadence_ms,
                           [this] { SampleTimelines(); });
  } else {
    sampler_armed_ = false;
  }
}

uint64_t MessageSim::SubmitLookupAt(SimTime at, PeerId source, KeyId target) {
  const uint64_t id = lookups_.size();
  lookups_.emplace_back();
  LookupOutcome outcome;
  outcome.id = id;
  outcome.source = source;
  outcome.target = target;
  outcomes_.push_back(outcome);
  engine_->ScheduleAt(at, [this, id] { Admit(id); });
  return id;
}

void MessageSim::Admit(uint64_t id) {
  outcomes_[id].submitted_ms = engine_->now();
  ArmSampler();
  if (active_ >= options_.max_in_flight) {
    backlog_.push_back(id);
    Emit(TraceKind::kBacklog, id, outcomes_[id].source, kTraceNone, 0);
    return;
  }
  Activate(id);
}

void MessageSim::Activate(uint64_t id) {
  ++active_;
  concurrency_.Add(engine_->now(), +1);
  if (spare_.empty()) {
    lookups_[id] = std::make_unique<Lookup>();
  } else {
    lookups_[id] = std::move(spare_.back());
    spare_.pop_back();
  }
  Lookup& lookup = *lookups_[id];
  // A reused record starts as a fresh one does: no transmission yet.
  lookup.hop_attempts = 0;
  lookup.pending_from = 0;
  lookup.pending_dest = 0;
  lookup.sent_at = 0.0;
  lookup.stepper.Start(*net_, outcomes_[id].source, outcomes_[id].target);
  Emit(TraceKind::kStart, id, outcomes_[id].source, kTraceNone, 0);
  if (lookup.stepper.done()) {  // Dead source or empty ring.
    Finish(id);
    return;
  }
  // The source services its own query first: its decision time and
  // queue depth are part of the lookup's latency.
  EnqueueAt(id, outcomes_[id].source);
}

MessageSim::PeerState& MessageSim::peer_state(PeerId peer) {
  if (peers_.size() <= peer) {
    peers_.resize(peer + 1);
    peer_load_.resize(peer + 1, 0);
  }
  return peers_[peer];
}

void MessageSim::EnqueueAt(uint64_t id, PeerId peer) {
  PeerState& state = peer_state(peer);
  if (state.depth++ == 0) {
    // An idle peer: the message goes straight into service.
    state.head = id;
    state.tail = id;
    BeginService(peer);
  } else {
    lookups_[state.tail]->next_queued = id;
    state.tail = id;
  }
}

void MessageSim::BeginService(PeerId peer) {
  engine_->ScheduleAfter(ServiceMsFor(peer),
                         [this, peer] { EndService(peer); });
}

double MessageSim::ServiceMsFor(PeerId peer) const {
  // Injected slowdown bursts stack on top of the static slow tier: a
  // statically-slow peer inside a slowed region pays both multipliers.
  double fault_mult = 1.0;
  if (options_.faults != nullptr && !options_.faults->empty()) {
    fault_mult = options_.faults->SlowMultiplierFor(net_->key(peer));
  }
  if (options_.slow_fraction <= 0.0) return options_.service_ms * fault_mult;
  // Splitmix64 of the ring key: slow membership is a stable property of
  // the peer, consumes no rng draws, and survives churn joins.
  uint64_t z = net_->key(peer).raw + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  const double base = u < options_.slow_fraction
                          ? options_.service_ms * options_.slow_multiplier
                          : options_.service_ms;
  return base * fault_mult;
}

void MessageSim::EndService(PeerId peer) {
  PeerState& state = peer_state(peer);
  const uint64_t id = state.head;
  if (--state.depth > 0) {
    state.head = lookups_[id]->next_queued;
    BeginService(peer);
  }
  if (!net_->alive(peer)) {
    // The peer crashed with this message aboard. Nobody answers; the
    // upstream peer notices through its ack timeout.
    Emit(TraceKind::kStranded, id, peer, kTraceNone, 0);
    engine_->ScheduleAfter(options_.timeout_ms,
                           [this, id] { HandleTimeout(id); });
    return;
  }
  ++peer_load_[peer];
  ProcessAt(id, peer);
}

void MessageSim::ProcessAt(uint64_t id, PeerId peer) {
  // A finished lookup's record is already handed on; its message is moot.
  if (outcomes_[id].finished) return;
  BacktrackingStepper& stepper = lookups_[id]->stepper;
  // The same generous safety net a whole route uses, re-read each time
  // because churn changes the alive count mid-run.
  if (stepper.OverBudget(*net_)) {
    stepper.Abandon(*net_);
    Finish(id);
    return;
  }
  const RouteStep step = stepper.Step(*net_);
  switch (step.kind) {
    case StepKind::kArrived:
    case StepKind::kStuck:
      Finish(id);
      return;
    case StepKind::kForward:
    case StepKind::kBacktrack: {
      // Probing each dead long link costs the prober a full timeout
      // before the real transmission leaves.
      const double probe_ms =
          options_.zero_latency
              ? 0.0
              : static_cast<double>(step.dead_probes) *
                    LatencyModel::kDeadProbeMs;
      Emit(step.kind == StepKind::kForward ? TraceKind::kForward
                                           : TraceKind::kBacktrack,
           id, peer, step.to, step.dead_probes);
      Transmit(id, peer, step.to, probe_ms);
      return;
    }
  }
}

void MessageSim::Transmit(uint64_t id, PeerId from, PeerId to,
                          double extra_delay_ms) {
  Lookup& lookup = *lookups_[id];
  lookup.pending_from = from;
  lookup.pending_dest = to;
  lookup.hop_attempts = 0;
  SendPending(id, extra_delay_ms);
}

void MessageSim::SendPending(uint64_t id, double extra_delay_ms) {
  Lookup& lookup = *lookups_[id];
  const PeerId to = lookup.pending_dest;
  ++messages_sent_;
  // Armed partition rules raise the loss of matching transmissions
  // above the ambient iid rate (the worst rule wins; they don't
  // compound). The draw is skipped entirely at 0.0 effective loss, so
  // an attached-but-quiet switchboard consumes no rng.
  double loss_rate = options_.loss_rate;
  if (options_.faults != nullptr && !options_.faults->empty()) {
    const double fault_loss = options_.faults->LossFor(
        net_->key(lookup.pending_from), net_->key(to));
    if (fault_loss > loss_rate) loss_rate = fault_loss;
  }
  const bool lost = loss_rate > 0.0 && rng_->NextDouble() < loss_rate;
  if (lost) {
    ++lost_messages_;
    Emit(TraceKind::kLost, id, lookup.pending_from, to, 0);
    engine_->ScheduleAfter(extra_delay_ms + options_.timeout_ms,
                           [this, id] { HandleTimeout(id); });
    return;
  }
  lookup.sent_at = engine_->now() + extra_delay_ms;
  engine_->ScheduleAt(lookup.sent_at + HopDelayMs(to),
                      [this, id] { Deliver(id); });
}

void MessageSim::Deliver(uint64_t id) {
  if (outcomes_[id].finished) return;
  const Lookup& lookup = *lookups_[id];
  if (!net_->alive(lookup.pending_dest)) {
    // Crashed while the message was in flight: delivery fails and the
    // sender only learns by silence, one ack timeout after sending.
    engine_->ScheduleAt(lookup.sent_at + options_.timeout_ms,
                        [this, id] { HandleTimeout(id); });
    return;
  }
  EnqueueAt(id, lookup.pending_dest);
}

void MessageSim::HandleTimeout(uint64_t id) {
  if (outcomes_[id].finished) return;
  ++timeouts_;
  Lookup& lookup = *lookups_[id];
  BacktrackingStepper& stepper = lookup.stepper;
  if (!net_->alive(lookup.pending_dest)) {
    // Crash discovered by silence: revert the unanswered hop and route
    // around it. (Also reached with a stale pending_dest when the peer
    // holding the query died — the revert unwinds past that peer, which
    // is the current stack top, so the action is right either way.)
    if (!stepper.FailDelivery(*net_)) {
      // The route is back at its origin with nothing to revert.
      stepper.Abandon(*net_);
      Finish(id);
      return;
    }
    Emit(TraceKind::kTimeoutDead, id, lookup.pending_dest,
         stepper.current(), 0);
    const PeerId resume = stepper.current();
    if (resume == lookup.pending_from) {
      // A failed forward: the query never left its sender, which now
      // re-decides knowing the stale link is dead.
      EnqueueAt(id, resume);
    } else {
      // A failed backtrack: unwind one level deeper with a fresh
      // transmission.
      Transmit(id, lookup.pending_from, resume, 0.0);
    }
    return;
  }
  // The destination is alive: the transmission was lost. Resend until
  // the per-hop retry budget runs out.
  if (lookup.hop_attempts >= options_.max_retries) {
    Emit(TraceKind::kDrop, id, lookup.pending_from, lookup.pending_dest,
         lookup.hop_attempts);
    stepper.Abandon(*net_);
    Finish(id);
    return;
  }
  ++lookup.hop_attempts;
  ++retries_;
  ++outcomes_[id].retries;
  Emit(TraceKind::kRetry, id, lookup.pending_from, lookup.pending_dest,
       lookup.hop_attempts);
  SendPending(id, 0.0);
}

void MessageSim::Finish(uint64_t id) {
  LookupOutcome& outcome = outcomes_[id];
  if (outcome.finished) return;
  const RouteResult& route = lookups_[id]->stepper.result();
  outcome.finished = true;
  outcome.success = route.success;
  outcome.hops = route.hops;
  outcome.wasted = route.wasted;
  // The outcome holds all a finished lookup reports: hand its record
  // (stepper with visited sets, stack and path) to the next activation
  // now rather than keep it to the end of the run, so memory tracks the
  // lookups in flight, not those submitted.
  spare_.push_back(std::move(lookups_[id]));
  outcome.completed_ms = engine_->now();
  outcome.latency_ms = outcome.completed_ms - outcome.submitted_ms;
  concurrency_.Add(engine_->now(), -1);
  --active_;
  Emit(outcome.success ? TraceKind::kDone : TraceKind::kFailed, id,
       outcome.source, kTraceNone, outcome.hops);
  if (!backlog_.empty()) {
    const uint64_t next = backlog_.front();
    backlog_.pop_front();
    Activate(next);
  }
}

double MessageSim::HopDelayMs(PeerId to) {
  if (options_.zero_latency) return 0.0;
  double& delay = peer_state(to).hop_delay_ms;
  if (delay < 0.0) delay = LatencyModel::DelayForKey(net_->key(to));
  return delay;
}

MessageSimReport MessageSim::Report() const {
  MessageSimReport report;
  report.submitted = outcomes_.size();
  std::vector<double> latencies;
  double hops = 0.0;
  double wasted = 0.0;
  for (const LookupOutcome& outcome : outcomes_) {
    if (!outcome.finished) continue;
    ++report.completed;
    if (outcome.success) ++report.succeeded;
    latencies.push_back(outcome.latency_ms);
    hops += outcome.hops;
    wasted += outcome.wasted;
  }
  if (report.completed > 0) {
    const double n = static_cast<double>(report.completed);
    report.success_rate = static_cast<double>(report.succeeded) / n;
    report.mean_hops = hops / n;
    report.mean_wasted = wasted / n;
  }
  report.latency = SummarizeLatency(std::move(latencies));
  report.messages_sent = messages_sent_;
  report.lost_messages = lost_messages_;
  report.timeouts = timeouts_;
  report.retries = retries_;
  report.peak_in_flight = concurrency_.peak();
  report.mean_in_flight = concurrency_.TimeWeightedMean(engine_->now());
  std::vector<uint64_t> load = peer_load_;
  load.resize(net_->size(), 0);
  report.peer_load = SummarizePeerLoad(load);
  return report;
}

}  // namespace oscar
