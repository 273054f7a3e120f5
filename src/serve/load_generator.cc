#include "serve/load_generator.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <limits>
#include <optional>
#include <queue>
#include <utility>

#include "common/stats.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/network_view.h"
#include "core/rng.h"
#include "keyspace/key_distribution.h"
#include "routing/route_stepper.h"
#include "serve/token_bucket.h"

namespace oscar {
namespace {

// Counter-fork stream channels (Rng::Fork's `stream` argument): every
// consumer gets its own channel so no draw in one phase can shift
// another phase's stream.
constexpr uint64_t kRouteStream = 0x10ad;
constexpr uint64_t kHotKeyStream = 0x407;

LatencyReport Summarize(const LogHistogram& hist) {
  LatencyReport report;
  report.count = hist.Count();
  report.mean_ms = hist.Mean();
  report.p50_ms = hist.Percentile(50.0);
  report.p90_ms = hist.Percentile(90.0);
  report.p99_ms = hist.Percentile(99.0);
  report.p999_ms = hist.Percentile(99.9);
  report.max_ms = hist.Max();
  return report;
}

}  // namespace

LoadGenerator::LoadGenerator(const TopologySnapshot& snapshot,
                             ServeOptions options)
    : snapshot_(snapshot), options_(std::move(options)) {}

void LoadGenerator::RoutePhase(ServeReport* report) {
  const Ring& ring = snapshot_.ring();
  const size_t alive = ring.size();
  const NetworkView view(snapshot_);

  // Hot-key set: keys of randomly drawn alive peers (with replacement —
  // a duplicate just merges two popularity ranks onto one owner), so
  // every hot key has a concrete owner whose in-flight gauge the
  // peer-cap policy can saturate. Workers share it: Sample is read-only.
  std::optional<ZipfHotKeys> hot;
  if (options_.hot_keys > 0) {
    Rng hot_rng = Rng::Fork(options_.seed, kHotKeyStream, 0);
    std::vector<KeyId> hot_keys;
    hot_keys.reserve(options_.hot_keys);
    for (size_t i = 0; i < options_.hot_keys; ++i) {
      const size_t pick = hot_rng.UniformInt(alive);
      hot_keys.push_back(KeyId::FromRaw(ring.entries()[pick].key_raw));
    }
    hot.emplace(std::move(hot_keys), options_.zipf_exponent);
  }

  routed_.assign(options_.lookups, RoutedLookup{});
  const uint32_t threads = std::max(1u, options_.threads);
  // One stepper per worker: a stepper holds its in-flight route state.
  std::vector<GreedyStepper> steppers(threads);

  const auto wall_start = std::chrono::steady_clock::now();
  ParallelForWorkers(
      threads, options_.lookups,
      [&](uint32_t worker, size_t i) {
        // Each lookup draws from its own counter-forked stream, so the
        // (source, key) pair is a pure function of (seed, i) no matter
        // which worker claims the index or in what order.
        Rng rng = Rng::Fork(options_.seed, kRouteStream, i);
        const PeerId source =
            ring.entries()[rng.UniformInt(alive)].id;
        const KeyId key =
            hot ? hot->Sample(&rng) : KeyId::FromRaw(rng.Next());

        const RouteResult& result = steppers[worker].Run(view, source, key);
        RoutedLookup& out = routed_[i];
        out.messages = result.hops + result.wasted;
        out.success = result.success;
        out.owner = snapshot_.OwnerOf(key).value_or(source);
      });
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  report->routed = options_.lookups;
  report->route_wall_s = wall_s;
  report->route_lookups_per_s =
      wall_s > 0.0 ? static_cast<double>(options_.lookups) / wall_s : 0.0;

  uint64_t total_messages = 0;
  uint64_t total_service_messages = 0;
  size_t successes = 0;
  LogHistogram service;
  for (const RoutedLookup& lookup : routed_) {
    total_messages += lookup.messages;
    total_service_messages += lookup.messages == 0 ? 1 : lookup.messages;
    if (lookup.success) ++successes;
    service.Record(ServiceMs(lookup));
  }
  const double n = static_cast<double>(options_.lookups);
  report->mean_messages = static_cast<double>(total_messages) / n;
  report->route_success_rate = static_cast<double>(successes) / n;
  report->service = Summarize(service);
  // The mean comes from the integer message total, not the histogram's
  // float sum: one multiply-divide instead of n rounded additions.
  report->service.mean_ms =
      options_.hop_ms * static_cast<double>(total_service_messages) / n;
}

ServeCellReport LoadGenerator::ServeCell(
    double offered_per_s, const AdmissionPolicy& policy,
    const std::vector<double>& arrivals_ms) const {
  ServeCellReport cell;
  cell.offered_per_s = std::max(0.0, offered_per_s);
  cell.policy = policy.name();
  cell.submitted = arrivals_ms.size();

  struct Queued {
    double arrival_ms;
    size_t index;
  };
  struct Completion {
    double finish_ms;
    uint64_t seq;  // Start order: deterministic tie-break on finish.
    size_t index;
    bool operator>(const Completion& other) const {
      return finish_ms != other.finish_ms ? finish_ms > other.finish_ms
                                          : seq > other.seq;
    }
  };

  std::deque<Queued> queue;
  std::priority_queue<Completion, std::vector<Completion>,
                      std::greater<Completion>>
      in_service;
  std::vector<uint32_t> owner_in_flight(snapshot_.size(), 0);
  const double timeout_ms = policy.QueueTimeoutMs();
  const size_t slots = std::max<size_t>(1, options_.concurrency);
  size_t free_slots = slots;
  LogHistogram latency;
  uint64_t start_seq = 0;
  double last_finish_ms = 0.0;

  // Per-cell admission/queue-depth timeline: three gauge events per
  // cadence tick, under this cell's own scope. Sampling reads state
  // only, so the sweep arithmetic (and its byte-determinism) is
  // untouched whether or not a sink is attached.
  TraceSink* const sink = options_.trace;
  double last_sample_ms = 0.0;
  bool sampled = false;
  const auto sample = [&](double now_ms) {
    TraceEvent depth;
    depth.t_us = TraceTimeUs(now_ms);
    depth.kind = TraceKind::kServeQueueDepth;
    depth.info = static_cast<uint32_t>(queue.size());
    sink->Append(depth);
    TraceEvent busy;
    busy.t_us = depth.t_us;
    busy.kind = TraceKind::kServeInFlight;
    busy.info = static_cast<uint32_t>(slots - free_slots);
    sink->Append(busy);
    TraceEvent refused;
    refused.t_us = depth.t_us;
    refused.kind = TraceKind::kServeDropped;
    refused.info = static_cast<uint32_t>(cell.dropped);
    refused.to = static_cast<uint32_t>(cell.shed);
    sink->Append(refused);
    last_sample_ms = now_ms;
    sampled = true;
  };
  if (sink != nullptr) {
    sink->SetScope(sink->Intern(StrCat(
        "serve rate=",
        cell.offered_per_s <= 0.0 ? std::string("off")
                                  : FormatDouble(cell.offered_per_s, 0),
        " policy=", cell.policy)));
  }

  // Starts service for `index` at `now_ms`; the end-to-end latency is
  // known immediately (queue wait + service time) — the completion
  // event only exists to free the slot and the owner gauge later.
  const auto start_service = [&](size_t index, double arrival_ms,
                                 double now_ms) {
    const double service_ms = ServiceMs(routed_[index]);
    const double finish_ms = now_ms + service_ms;
    in_service.push(Completion{finish_ms, start_seq++, index});
    --free_slots;
    latency.Record(now_ms - arrival_ms + service_ms);
    ++cell.completed;
    if (routed_[index].success) ++cell.succeeded;
    last_finish_ms = std::max(last_finish_ms, finish_ms);
  };

  // Frees one slot at `now_ms`, then refills it from the queue head,
  // shedding entries whose wait exceeded the policy deadline.
  const auto refill_from_queue = [&](double now_ms) {
    while (free_slots > 0 && !queue.empty()) {
      const Queued head = queue.front();
      queue.pop_front();
      if (now_ms - head.arrival_ms > timeout_ms) {
        ++cell.shed;
        --owner_in_flight[routed_[head.index].owner];
        continue;
      }
      start_service(head.index, head.arrival_ms, now_ms);
    }
  };

  const auto complete_until = [&](double now_ms) {
    while (!in_service.empty() && in_service.top().finish_ms <= now_ms) {
      const Completion done = in_service.top();
      in_service.pop();
      ++free_slots;
      --owner_in_flight[routed_[done.index].owner];
      refill_from_queue(done.finish_ms);
    }
  };

  for (size_t i = 0; i < arrivals_ms.size(); ++i) {
    const double now_ms = arrivals_ms[i];
    complete_until(now_ms);
    if (sink != nullptr &&
        (!sampled || now_ms - last_sample_ms >= options_.trace_cadence_ms)) {
      sample(now_ms);
    }
    const PeerId owner = routed_[i].owner;
    if (!policy.Admit(queue.size(), owner_in_flight[owner])) {
      ++cell.dropped;
      continue;
    }
    ++cell.admitted;
    ++owner_in_flight[owner];
    if (free_slots > 0 && queue.empty()) {
      start_service(i, now_ms, now_ms);
    } else {
      queue.push_back(Queued{now_ms, i});
      cell.queue_peak =
          std::max(cell.queue_peak, static_cast<double>(queue.size()));
    }
  }
  complete_until(std::numeric_limits<double>::infinity());
  // Closing sample: the drained state at the cell's last completion.
  if (sink != nullptr) sample(last_finish_ms);

  const double first_ms = arrivals_ms.empty() ? 0.0 : arrivals_ms.front();
  const double span_ms = last_finish_ms - first_ms;
  cell.achieved_per_s =
      span_ms > 0.0
          ? static_cast<double>(cell.completed) / span_ms * 1000.0
          : 0.0;
  cell.latency = Summarize(latency);
  return cell;
}

Result<ServeReport> LoadGenerator::Run() {
  if (snapshot_.alive_count() == 0) {
    return Status::Error("serve: snapshot has no alive peers");
  }
  if (options_.lookups == 0) {
    return Status::Error("serve: lookups must be positive");
  }
  if (options_.offered_rates_per_s.empty()) {
    return Status::Error("serve: at least one offered rate required");
  }
  if (options_.policies.empty()) {
    return Status::Error("serve: at least one admission policy required");
  }
  std::vector<AdmissionPolicyPtr> policies;
  policies.reserve(options_.policies.size());
  for (const std::string& name : options_.policies) {
    auto policy = MakeAdmissionPolicy(name, options_.admission);
    if (!policy.ok()) return policy.status();
    policies.push_back(std::move(policy).value());
  }

  ServeReport report;
  RoutePhase(&report);

  for (double rate : options_.offered_rates_per_s) {
    // One arrival schedule per rate, shared by every policy in the
    // cell row: policies are compared on literally identical traffic.
    const std::vector<double> arrivals = GenerateArrivalsMs(
        options_.lookups, rate, options_.burst, options_.seed);
    for (const AdmissionPolicyPtr& policy : policies) {
      report.cells.push_back(ServeCell(rate, *policy, arrivals));
      report.total_submitted += report.cells.back().submitted;
    }
  }
  return report;
}

}  // namespace oscar
