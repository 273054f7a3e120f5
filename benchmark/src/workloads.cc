#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "core/experiments.h"
#include "core/simulation.h"
#include "core/topology_snapshot.h"
#include "metrics/degree_metrics.h"
#include "reference.h"
#include "serve/load_generator.h"
#include "sim/scenario.h"
#include "trace/columnar_trace.h"

namespace oscar_bench {
namespace {

using oscar::GrownTopology;
using oscar::GrowthConfig;
using oscar::GrowthResult;
using oscar::Network;
using oscar::PeerId;
using oscar::ScenarioOptions;
using oscar::ScenarioResult;
using oscar::ServeReport;
using oscar::TopologySnapshot;
using Clock = std::chrono::steady_clock;

/// Input sizes. The full scale is what BENCHMARK.json's numbers mean;
/// the smoke scale only proves the program and its checks work.
struct Scale {
  size_t grow_peers;
  size_t serve_peers;  // serve and sim-steady share this topology size.
  size_t churn_peers;
  size_t serve_lookups;
  size_t serve_warmup;
  size_t sim_lookups;
  size_t sim_warmup;
  size_t churn_lookups;
  size_t probe_lookups;      // Serve probes: quality, capacity, threads.
  size_t sim_probe_lookups;  // Traced baseline probe: sim + trace layers.
  size_t setup_reps;         // Growth set-ups timed per run.
  size_t min_reps;           // Untraced; trace runs take max(1, n-1) each.
};

constexpr Scale kFull = {3000, 3000,   1000,  200000, 100000, 100000,
                         10000, 2000, 100000, 10000, 3,      3};
constexpr Scale kSmoke = {300, 300,  300, 20000, 2000, 2000,
                          200, 300, 5000, 500,   1,    1};

// The serve workload's offered rate, and the routing probes'.
constexpr double kProbeRate = 4000.0;
// grow's latency probe runs slower: grow's multi-checkpoint overlay
// routes in ~17.5 messages, so 4000/s would overload 64 slots and its
// latency would measure the probe's length, not the overlay. Not much
// slower, though: without queueing, a latency is a whole number of
// messages, and the median jumps between 7 and 8 ms with the traffic.
constexpr double kQualityRate = 3000.0;
// sim-steady's mean lookup inter-arrival time. The catalog's 5 ms queues
// lookups behind busy peers, and that queueing moves the median latency
// by 2-3% from one traffic seed to the next; from 7 ms on, lookups do
// not queue and the median moves by under 1%.
constexpr double kSteadyIntervalMs = 10.0;
// serve_capacity_per_s: the highest offered rate in [lo, hi], found to
// kCapacityPrecision, at which policy "none" keeps p99 at or under
// kCapacityP99Ms. That is also the no-growing-backlog test: the probe's
// arrivals span tens of virtual seconds, so a queue growing by even 1%
// of the rate adds far more than the limit to the tail.
constexpr double kCapacityLo = 500.0;
constexpr double kCapacityHi = 20000.0;
constexpr double kCapacityPrecision = 1.01;
constexpr double kCapacityP99Ms = 100.0;
constexpr size_t kCapacityGrid = 8;  // Interior rates per probe call.
constexpr int kProbeRounds = 3;      // Alternating pairs per timed probe.
// routing.thread_speedup: route wall at kThreads over route wall at this
// many threads, in a trace run's routing probe.
constexpr uint32_t kSpeedupThreads = 2;

constexpr char kRepSpan[] = "rep";
constexpr char kSetUpSpan[] = "SetUp";
constexpr char kRunSpan[] = "Simulation::Run";
constexpr char kFreezeSpan[] = "TopologySnapshot";
constexpr char kRestoreSpan[] = "RestoreInto";
constexpr char kIdentitySpan[] = "CheckRestoreIdentity";
constexpr char kScenarioSpan[] = "RunScenarioOn";
constexpr char kServeSpan[] = "LoadGenerator::Run";

/// Thrown after a failed library call has been recorded; ends the
/// workload, since nothing after it has valid inputs.
struct Abort {};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

template <typename F>
double Timed(F&& f) {
  const auto start = Clock::now();
  f();
  return SecondsSince(start);
}

Summary Summarize(std::vector<double> values) {
  Summary summary;
  summary.n = values.size();
  if (values.empty()) return summary;
  std::sort(values.begin(), values.end());
  const auto at = [&values](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
  };
  summary.min = values.front();
  summary.q1 = at(0.25);
  summary.median = at(0.5);
  summary.q3 = at(0.75);
  summary.max = values.back();
  return summary;
}

double Median(std::vector<double> values) {
  return Summarize(std::move(values)).median;
}

double Ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// FNV-1a over everything a snapshot freezes: per-peer key, caps,
/// liveness and both CSR link rows, then the ring index.
uint64_t Digest(const TopologySnapshot& snap) {
  uint64_t hash = 1469598103934665603ULL;
  const auto mix = [&hash](uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (value >> (8 * byte)) & 0xff;
      hash *= 1099511628211ULL;
    }
  };
  mix(snap.size());
  for (PeerId id = 0; id < snap.size(); ++id) {
    mix(snap.key(id).raw);
    mix(snap.caps(id).max_in);
    mix(snap.caps(id).max_out);
    mix(snap.alive(id) ? 1 : 0);
    const oscar::PeerSpan out = snap.OutLinks(id);
    mix(out.size());
    for (PeerId target : out) mix(target);
    const oscar::PeerSpan in = snap.InLinks(id);
    mix(in.size());
    for (PeerId source : in) mix(source);
  }
  for (const oscar::Ring::Entry& entry : snap.ring().entries()) {
    mix(entry.key_raw);
    mix(entry.id);
  }
  return hash;
}

/// Bytes of the snapshot's arrays, from its public shape: per-peer key,
/// caps, alive flag and ring position, both offset arrays, both edge
/// arrays, and the ring index.
double SnapshotBytes(const TopologySnapshot& snap) {
  const double peers = static_cast<double>(snap.size());
  double edges = 0.0;
  for (PeerId id = 0; id < snap.size(); ++id) {
    edges += static_cast<double>(snap.OutLinks(id).size() +
                                 snap.InLinks(id).size());
  }
  const double offset_bytes = snap.wide_offsets() ? 8.0 : 4.0;
  return peers * (sizeof(oscar::KeyId) + sizeof(oscar::DegreeCaps) + 1.0 +
                  sizeof(uint32_t)) +
         2.0 * (peers + 1.0) * offset_bytes + edges * sizeof(PeerId) +
         static_cast<double>(snap.alive_count()) *
             sizeof(oscar::Ring::Entry);
}

/// Peak resident set of this program image: VmHWM, not getrusage's
/// ru_maxrss, which survives exec and so reports the peak of the shell
/// that run.sh replaces whenever that was higher than this program's.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // In kB.
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Modelled outputs of one repetition (or set-up). Virtual time and
/// the topology are deterministic per seed, so these must be identical
/// across repetitions and between traced and untraced runs.
struct Fingerprint {
  uint64_t digest = 0;
  std::vector<double> values;
  bool operator==(const Fingerprint& other) const {
    return digest == other.digest && values == other.values;
  }
};

using Interval = std::pair<int64_t, int64_t>;

int64_t UnionNs(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end());
  int64_t total = 0;
  int64_t start = 0;
  int64_t end = 0;
  bool open = false;
  for (const Interval& interval : intervals) {
    if (open && interval.first <= end) {
      end = std::max(end, interval.second);
      continue;
    }
    if (open) total += end - start;
    start = interval.first;
    end = interval.second;
    open = true;
  }
  if (open) total += end - start;
  return total;
}

int64_t Duration(const Span& span) { return span.end_ns - span.start_ns; }

/// Parent/child index over a run's spans.
class SpanIndex {
 public:
  explicit SpanIndex(const std::vector<Span>& spans) : spans_(spans) {
    for (size_t i = 0; i < spans_.size(); ++i) {
      by_id_[spans_[i].id] = i;
      children_[spans_[i].parent].push_back(i);
    }
  }

  const Span& at(uint64_t id) const { return spans_[by_id_.at(id)]; }

  /// Duration minus the part of it the direct children cover.
  int64_t SelfNs(uint64_t id) const {
    const Span& span = at(id);
    std::vector<Interval> covered;
    const auto it = children_.find(id);
    if (it != children_.end()) {
      for (size_t child : it->second) {
        covered.emplace_back(std::max(spans_[child].start_ns, span.start_ns),
                             std::min(spans_[child].end_ns, span.end_ns));
      }
    }
    return Duration(span) - UnionNs(std::move(covered));
  }

  /// Spans called `name` anywhere below `root` (0 = the whole run).
  std::vector<const Span*> Below(uint64_t root, const char* name) const {
    std::vector<const Span*> found;
    std::vector<uint64_t> pending = {root};
    while (!pending.empty()) {
      const uint64_t id = pending.back();
      pending.pop_back();
      const auto it = children_.find(id);
      if (it == children_.end()) continue;
      for (size_t child : it->second) {
        if (std::strcmp(spans_[child].name, name) == 0) {
          found.push_back(&spans_[child]);
        }
        pending.push_back(spans_[child].id);
      }
    }
    return found;
  }

 private:
  const std::vector<Span>& spans_;
  std::unordered_map<uint64_t, size_t> by_id_;
  std::unordered_map<uint64_t, std::vector<size_t>> children_;
};

/// Overlay and sampler work in one traced window: the traced set-up
/// growth, or one traced repetition.
struct Window {
  uint64_t root = 0;
  SamplerTotals sampler;
};

/// Overlay and sampler work per traced pass: the set-up window plus the
/// mean of the repetition windows.
struct Pass {
  double build_calls = 0.0;
  double build_ns = 0.0;
  double plan_calls = 0.0;
  double plan_ns = 0.0;
  double plan_wall_ns = 0.0;  // Union of the PlanLinks intervals.
  struct Walks {
    double calls = 0.0;
    double steps = 0.0;
    double busy_ns = 0.0;
    double failed = 0.0;
  };
  Walks csr;
  Walks live;

  void Add(const SpanIndex& index, const Window& window, double weight) {
    for (const Span* span : index.Below(window.root, kBuildLinksSpan)) {
      build_calls += weight;
      build_ns += weight * static_cast<double>(Duration(*span));
    }
    std::vector<Interval> plans;
    for (const Span* span : index.Below(window.root, kPlanLinksSpan)) {
      plan_calls += weight;
      plan_ns += weight * static_cast<double>(Duration(*span));
      plans.emplace_back(span->start_ns, span->end_ns);
    }
    plan_wall_ns += weight * static_cast<double>(UnionNs(std::move(plans)));
    AddWalks(&csr, window.sampler.csr, weight);
    AddWalks(&live, window.sampler.live, weight);
  }

 private:
  static void AddWalks(Walks* into, const WalkTotals& add, double weight) {
    into->calls += weight * static_cast<double>(add.calls);
    into->steps += weight * static_cast<double>(add.steps);
    into->busy_ns += weight * static_cast<double>(add.busy_ns);
    into->failed += weight * static_cast<double>(add.failed);
  }
};

/// One LoadGenerator::Run as the routing and serve layers see it.
struct ServeSample {
  double route_wall_s = 0.0;
  double run_wall_s = 0.0;
  double lookups = 0.0;  // One serving cell each.
  double mean_messages = 0.0;
};

/// One RunScenarioOn as the sim layer sees it.
struct SimSample {
  uint64_t span = 0;
  double events = 0.0;
  double submitted = 0.0;
  double messages = 0.0;
  double peak_in_flight = 0.0;
};

/// The end-to-end metrics each workload computes (setup_s and
/// peak_rss_mb come from the run itself).
struct EndToEnd {
  double throughput_per_s = 0.0;
  double search_cost_msgs = 0.0;
  double lookup_success = 0.0;
  double lookup_p50_ms = 0.0;
  double lookup_p99_ms = 0.0;
  double serve_capacity_per_s = 0.0;
  double in_degree_utilization = 0.0;
  double sampling_msgs_per_peer = 0.0;
};

struct Capacity {
  double per_s = 0.0;
  double queue_peak = 0.0;
};

/// Untraced and traced versions of a workload's start topology. The
/// traced one exists only in trace runs and must freeze identically.
struct Topologies {
  GrownTopology plain;
  GrownTopology traced;
  const GrownTopology& get(bool traced_rep) const {
    return traced_rep ? traced : plain;
  }
};

class WorkloadRun {
 public:
  explicit WorkloadRun(const RunOptions& options)
      : options_(options), scale_(options.smoke ? kSmoke : kFull) {}

  RunReport Execute() {
    ResetTracing();
    try {
      const std::string& name = options_.workload;
      if (name == "grow") {
        Grow();
      } else if (name == "serve") {
        ServeWorkload();
      } else if (name == "sim-steady") {
        SimSteady();
      } else if (name == "churn-repair") {
        ChurnRepair();
      } else {
        Expect(false, "unknown workload '" + name + "'");
      }
    } catch (const Abort&) {
      // Recorded where it was thrown; the report says what failed.
    }
    return std::move(report_);
  }

 private:
  // ---- Checks -------------------------------------------------------

  bool Expect(bool ok, const std::string& what) {
    ++report_.attempted;
    if (!ok) {
      ++report_.failed;
      report_.failures.push_back(what);
    }
    return ok;
  }

  /// Counts one library call; a failed one is recorded and ends the
  /// workload. Builds no string on success: grow times these calls.
  void MustOk(const oscar::Status& status, const char* what) {
    ++report_.attempted;
    if (status.ok()) return;
    ++report_.failed;
    report_.failures.push_back(std::string(what) + ": " + status.message());
    throw Abort{};
  }

  template <typename T>
  T Must(oscar::Result<T> result, const char* what) {
    MustOk(result.status(), what);
    return std::move(result).value();
  }

  void CheckSame(std::optional<Fingerprint>* reference,
                 const Fingerprint& fingerprint, const std::string& what) {
    if (!reference->has_value()) {
      *reference = fingerprint;
      return;
    }
    Expect(**reference == fingerprint,
           what + " differs from the first repetition");
  }

  // ---- Repetitions ----------------------------------------------------

  /// Trace runs alternate untraced and traced repetitions, so tracing
  /// overhead compares like with like.
  bool TracedRep(size_t i) const { return options_.trace && i % 2 == 1; }

  /// Host-reference kernel time around a measured interval: the mean of
  /// one sample right before it and one right after.
  template <typename F>
  double Bracketed(F&& f) {
    const double before = reference_.Sample();
    f();
    const double after = reference_.Sample();
    reference_s_.insert(reference_s_.end(), {before, after});
    return 0.5 * (before + after);
  }

  /// Calls rep(traced), which returns its measured wall seconds, until
  /// the run's seconds are spent and the minimum count has run. The
  /// set-ups still due (see SetUp) run between repetitions, spread over
  /// the run, so that set-up and phase sample the same stretch of the
  /// host's drift; their time does not count against the run's seconds,
  /// or serve's and sim-steady's would leave the phase a third of it.
  template <typename Rep>
  void Repeat(Rep&& rep) {
    const size_t min_reps =
        options_.trace ? 2 * std::max<size_t>(1, scale_.min_reps - 1)
                       : scale_.min_reps;
    const double seconds = options_.smoke ? 0.0 : options_.seconds;
    const size_t setups = setup_s_.size() + pending_setups_;
    const auto start = Clock::now();
    double setup_wall = 0.0;
    const auto spent = [&] { return SecondsSince(start) - setup_wall; };
    for (size_t i = 0; i < min_reps || spent() < seconds; ++i) {
      const bool traced = TracedRep(i);
      double wall = 0.0;
      const double kernel = Bracketed([&] { wall = rep(traced); });
      rep_kernel_s_.push_back(kernel);
      (traced ? traced_phase_s_ : phase_s_)
          .push_back(ToReferenceSeconds(wall, kernel));
      if (!traced) wall_phase_s_.push_back(wall);
      // Set-up k of n is due once k/n of the run's seconds have passed.
      if (pending_setups_ > 0 &&
          spent() * static_cast<double>(setups) >=
              seconds * static_cast<double>(setups - pending_setups_)) {
        setup_wall += Timed([&] { GrowSetUp(); });
      }
    }
    while (pending_setups_ > 0) GrowSetUp();
    // Before the probes: their worker threads' allocator arenas would
    // add noise that is not the workload's.
    peak_rss_mb_ = PeakRssMb();
  }

  // ---- Set-up -----------------------------------------------------------

  ScenarioOptions Base(size_t peers, size_t lookups) const {
    ScenarioOptions base;  // Oscar, Gnutella keys, realistic degrees.
    base.network_size = peers;
    base.lookups = lookups;
    base.seed = options_.seed;
    return base;
  }

  /// The start topology of serve, sim-steady and churn-repair, grown by
  /// GrowScenarioTopology as oscar_sim and oscar_serve grow theirs, from
  /// the dataset seed. Untraced runs grow it setup_reps times in all and
  /// report the median as setup_s: once here, the rest between the
  /// repetitions (Repeat). Trace runs grow it once plainly and once
  /// through the timing decorators.
  Topologies SetUp(size_t peers) {
    setup_base_ = Base(peers, 0);
    setup_base_.seed = options_.dataset_seed;
    pending_setups_ = options_.trace ? 1 : scale_.setup_reps;
    Topologies out;
    out.plain = GrowSetUp();
    if (options_.trace) {
      out.traced = GrowTraced(setup_base_);
      CheckSame(&setup_digest_, {Digest(out.traced.snapshot), {}},
                "traced set-up topology");
    }
    snapshot_bytes_ = SnapshotBytes(out.plain.snapshot);
    return out;
  }

  /// One timed set-up growth; its topology must match the first one's.
  GrownTopology GrowSetUp() {
    GrownTopology grown;
    double wall = 0.0;
    const double kernel = Bracketed([&] {
      wall = Timed([&] {
        grown = Must(oscar::GrowScenarioTopology(setup_base_),
                     "GrowScenarioTopology");
      });
    });
    --pending_setups_;
    setup_s_.push_back(ToReferenceSeconds(wall, kernel));
    wall_setup_s_.push_back(wall);
    MustOk(grown.snapshot.Validate(), "TopologySnapshot::Validate");
    CheckSame(&setup_digest_, {Digest(grown.snapshot), {}}, "set-up topology");
    return grown;
  }

  /// GrowScenarioTopology's growth, step for step, with the Oscar
  /// overlay and its sampler wrapped in the timing decorators.
  GrownTopology GrowTraced(const ScenarioOptions& base) {
    ScopedSpan setup(kSetUpSpan, true, true);
    const SamplerTotals before = CollectSamplerTotals();
    GrowthConfig config;
    config.target_size = base.network_size;
    config.queries_per_checkpoint = 0;
    config.seed = base.seed;
    config.checkpoints = {base.network_size};
    config.key_distribution =
        Must(oscar::MakeKeyDistribution(base.keys), "MakeKeyDistribution");
    config.degree_distribution =
        Must(oscar::MakePaperDegreeDistribution(base.degrees),
             "MakePaperDegreeDistribution");
    config.overlay = MakeTracedOscar();
    oscar::Simulation growth(std::move(config));
    {
      ScopedSpan run(kRunSpan, true, true);
      const GrowthResult result = Must(growth.Run(), "Simulation::Run");
      rewire_s_.push_back(result.rewire_wall_ms / 1000.0);
    }
    MustOk(growth.network().CheckInvariants(), "Network::CheckInvariants");
    GrownTopology grown;
    grown.snapshot = Freeze(growth.network(), true);
    grown.overlay = growth.config().overlay;
    grown.keys = growth.config().key_distribution;
    grown.degrees = growth.config().degree_distribution;
    setup_window_ = Window{setup.id(), CollectSamplerTotals() - before};
    return grown;
  }

  /// The grow workload's set-up: its inputs (Gnutella keys, realistic
  /// degrees) and a fresh overlay.
  GrowthConfig GrowConfig(oscar::OverlayPtr overlay) {
    const size_t peers = scale_.grow_peers;
    GrowthConfig config;
    config.target_size = peers;
    config.seed = options_.dataset_seed;
    config.checkpoints = {peers / 4, peers / 2, peers};
    config.key_distribution =
        Must(oscar::MakeKeyDistribution("gnutella"), "MakeKeyDistribution");
    config.degree_distribution =
        Must(oscar::MakePaperDegreeDistribution("realistic"),
             "MakePaperDegreeDistribution");
    config.overlay = std::move(overlay);
    return config;
  }

  // ---- Timed library calls, with their output checks ------------------

  TopologySnapshot Freeze(const Network& net, bool traced) {
    TopologySnapshot snapshot;
    freeze_ms_.push_back(1000.0 * Timed([&] {
      ScopedSpan span(kFreezeSpan, traced, true);
      snapshot = TopologySnapshot(net);
    }));
    MustOk(snapshot.Validate(), "TopologySnapshot::Validate");
    return snapshot;
  }

  /// RestoreInto, timed, then the restore-identity check. Returns the
  /// restore's seconds.
  double Restore(const TopologySnapshot& snapshot, Network* scratch,
                 bool traced) {
    const double seconds = Timed([&] {
      ScopedSpan span(kRestoreSpan, traced, true);
      snapshot.RestoreInto(scratch);
    });
    restore_ms_.push_back(1000.0 * seconds);
    ScopedSpan span(kIdentitySpan, traced);
    MustOk(snapshot.CheckRestoreIdentity(*scratch), "CheckRestoreIdentity");
    return seconds;
  }

  ServeReport Serve(const TopologySnapshot& snapshot, size_t lookups,
                    uint32_t threads, std::vector<double> rates) {
    oscar::ServeOptions options;
    options.lookups = lookups;
    options.seed = options_.seed;
    options.threads = threads;
    options.offered_rates_per_s = std::move(rates);
    options.policies = {"none"};
    oscar::LoadGenerator generator(snapshot, options);
    return Must(generator.Run(), "LoadGenerator::Run");
  }

  void CheckServe(const ServeReport& report, size_t lookups) {
    Expect(report.routed == lookups, "serve: routed != lookups");
    for (const oscar::ServeCellReport& cell : report.cells) {
      Expect(cell.submitted == lookups && cell.completed == cell.submitted,
             "serve: policy none left lookups uncompleted");
    }
  }

  Fingerprint ServeFingerprint(const ServeReport& report) const {
    Fingerprint out;
    out.values = {report.mean_messages, report.route_success_rate,
                  report.service.p50_ms, report.service.p99_ms};
    for (const oscar::ServeCellReport& cell : report.cells) {
      out.values.insert(out.values.end(),
                        {cell.achieved_per_s, cell.queue_peak,
                         cell.latency.p50_ms, cell.latency.p99_ms});
    }
    return out;
  }

  void CheckScenario(const ScenarioResult& result, size_t lookups) {
    Expect(result.report.submitted == lookups,
           "scenario: submitted != lookups");
    Expect(result.report.completed == result.report.submitted,
           "scenario: completed != submitted");
  }

  Fingerprint ScenarioFingerprint(const ScenarioResult& result) const {
    const oscar::MessageSimReport& r = result.report;
    Fingerprint out;
    out.values = {r.success_rate,
                  r.mean_hops,
                  r.mean_wasted,
                  r.latency.p50_ms,
                  r.latency.p99_ms,
                  static_cast<double>(result.events_dispatched),
                  static_cast<double>(r.messages_sent),
                  static_cast<double>(result.crashed),
                  static_cast<double>(result.joined),
                  static_cast<double>(result.maintenance_sampling_steps)};
    return out;
  }

  /// Geometric interior grid of `count` rates strictly between lo, hi.
  static std::vector<double> Grid(double lo, double hi, size_t count) {
    std::vector<double> rates;
    for (size_t j = 1; j <= count; ++j) {
      rates.push_back(lo * std::pow(hi / lo, static_cast<double>(j) /
                                                 static_cast<double>(count + 1)));
    }
    return rates;
  }

  /// serve_capacity_per_s over `snapshot` (see kCapacity*). Each probe
  /// call routes once and replays the lookups at kCapacityGrid rates, so
  /// three calls narrow [500, 20000] below 1%.
  Capacity FindCapacity(const TopologySnapshot& snapshot) {
    const size_t lookups = scale_.probe_lookups;
    double lo = kCapacityLo;
    double hi = kCapacityHi;
    std::vector<double> rates = Grid(lo, hi, kCapacityGrid);
    rates.insert(rates.begin(), lo);
    rates.push_back(hi);
    Capacity best;
    bool hi_feasible = true;
    while (true) {
      const ServeReport report = Serve(snapshot, lookups, kThreads, rates);
      CheckServe(report, lookups);
      size_t i = 0;
      for (; i < rates.size(); ++i) {
        const oscar::ServeCellReport& cell = report.cells[i];
        if (cell.latency.p99_ms > kCapacityP99Ms) break;
        best = {rates[i], cell.queue_peak};
        lo = rates[i];
      }
      if (i < rates.size()) {
        hi = rates[i];
        hi_feasible = false;
      }
      if (best.per_s == 0.0 || hi_feasible || hi / lo <= kCapacityPrecision) {
        break;
      }
      rates = Grid(lo, hi, kCapacityGrid);
    }
    Expect(best.per_s > 0.0, "serve capacity below the probed range");
    return best;
  }

  // ---- Probes over a workload's topology ------------------------------

  /// Quality of a topology as a serving user sees it: one probe-sized
  /// LoadGenerator run at `rate` (route length plus queueing).
  void QualityProbe(const TopologySnapshot& snapshot, double rate,
                    EndToEnd* e) {
    const ServeReport report =
        Serve(snapshot, scale_.probe_lookups, kThreads, {rate});
    CheckServe(report, scale_.probe_lookups);
    e->search_cost_msgs = report.mean_messages;
    e->lookup_success = report.route_success_rate;
    e->lookup_p50_ms = report.cells[0].latency.p50_ms;
    e->lookup_p99_ms = report.cells[0].latency.p99_ms;
  }

  /// Traced runs: the CSR route phase at kThreads and at
  /// kSpeedupThreads, alternating. Records the routing/serve layer
  /// samples unless the workload's own repetitions already did.
  void RoutingProbe(const TopologySnapshot& snapshot, bool record) {
    const size_t lookups = scale_.probe_lookups;
    std::vector<double> wide;
    std::vector<double> single;
    for (int round = 0; round < kProbeRounds; ++round) {
      ServeReport report;
      const double run_s = Timed([&] {
        report = Serve(snapshot, lookups, kThreads, {kProbeRate});
      });
      CheckServe(report, lookups);
      single.push_back(report.route_wall_s);
      if (record) {
        serves_.push_back({report.route_wall_s, run_s,
                           static_cast<double>(lookups),
                           report.mean_messages});
      }
      report = Serve(snapshot, lookups, kSpeedupThreads, {kProbeRate});
      CheckServe(report, lookups);
      wide.push_back(report.route_wall_s);
    }
    thread_speedup_ = Ratio(Median(single), Median(wide));
  }

  /// Traced runs: a baseline scenario over `grown`, plain and with a
  /// columnar trace writer on an in-memory stream. Gives the trace
  /// layer's cost everywhere, and the sim layer's numbers for workloads
  /// whose own phase does not run the event engine.
  void SimProbe(const GrownTopology& grown, size_t peers, bool record) {
    const ScenarioOptions base = Base(peers, scale_.sim_probe_lookups);
    Network scratch;
    std::optional<Fingerprint> reference;
    std::vector<double> plain_s;
    std::vector<double> written_s;
    double bytes = 0.0;
    double events = 0.0;
    for (int round = 0; round < kProbeRounds; ++round) {
      ScenarioResult result;
      uint64_t span_id = 0;
      plain_s.push_back(Timed([&] {
        ScopedSpan span(kScenarioSpan, true, true);
        span_id = span.id();
        result = Must(oscar::RunScenarioOn("baseline", base, grown, &scratch),
                      "RunScenarioOn");
      }));
      CheckScenario(result, base.lookups);
      CheckSame(&reference, ScenarioFingerprint(result), "sim probe");
      if (record && round == 0) AddSimSample(span_id, result);

      std::ostringstream stream;
      oscar::ColumnarTraceWriter writer(&stream);
      ScenarioOptions written = base;
      written.sim.sink = &writer;
      written_s.push_back(Timed([&] {
        result = Must(
            oscar::RunScenarioOn("baseline", written, grown, &scratch),
            "RunScenarioOn");
        MustOk(writer.Close(), "ColumnarTraceWriter::Close");
      }));
      CheckScenario(result, base.lookups);
      CheckSame(&reference, ScenarioFingerprint(result),
                "sim probe with a trace writer");
      bytes = static_cast<double>(stream.str().size());
      events = static_cast<double>(writer.events_written());
    }
    Expect(events > 0.0, "trace writer recorded no events");
    trace_bytes_per_event_ = Ratio(bytes, events);
    trace_ns_per_event_ =
        Ratio((Median(written_s) - Median(plain_s)) * 1e9, events);
  }

  void AddSimSample(uint64_t span, const ScenarioResult& result) {
    sims_.push_back({span, static_cast<double>(result.events_dispatched),
                     static_cast<double>(result.report.submitted),
                     static_cast<double>(result.report.messages_sent),
                     static_cast<double>(result.report.peak_in_flight)});
  }

  // ---- Workloads ------------------------------------------------------

  /// grow: Simulation::Run from empty to N with checkpoint rewiring.
  /// Set-up is building its inputs and the Simulation; there is no
  /// warm-up, because a user pays growth cold on every run.
  void Grow() {
    const size_t peers = scale_.grow_peers;
    std::vector<double> setup_wall;  // Every repetition's, traced too.
    std::optional<Fingerprint> reference;
    std::unique_ptr<oscar::Simulation> last;
    TopologySnapshot last_snapshot;
    Repeat([&](bool traced) {
      std::unique_ptr<oscar::Simulation> sim;
      setup_wall.push_back(Timed([&] {
        sim = std::make_unique<oscar::Simulation>(
            GrowConfig(traced ? MakeTracedOscar() : oscar::OscarFactory()()));
      }));
      const SamplerTotals before = CollectSamplerTotals();
      GrowthResult result;
      double seconds = 0.0;
      {
        ScopedSpan rep(kRepSpan, traced, true);
        seconds = Timed([&] {
          ScopedSpan run(kRunSpan, traced, true);
          result = Must(sim->Run(), "Simulation::Run");
        });
        if (traced) {
          rep_windows_.push_back({rep.id(), CollectSamplerTotals() - before});
          rewire_s_.push_back(result.rewire_wall_ms / 1000.0);
        }
      }
      MustOk(sim->network().CheckInvariants(), "Network::CheckInvariants");
      TopologySnapshot snapshot = Freeze(sim->network(), traced);
      CheckSame(&reference,
                {Digest(snapshot),
                 {static_cast<double>(sim->config().overlay->sampling_steps()),
                  static_cast<double>(result.rewire_count)}},
                "grown topology");
      last = std::move(sim);
      last_snapshot = std::move(snapshot);
      return seconds;
    });
    // Each set-up ran inside its repetition's reference bracket.
    for (size_t i = 0; i < setup_wall.size(); ++i) {
      if (TracedRep(i)) continue;
      wall_setup_s_.push_back(setup_wall[i]);
      setup_s_.push_back(ToReferenceSeconds(setup_wall[i], rep_kernel_s_[i]));
    }

    Network scratch;
    Restore(last_snapshot, &scratch, options_.trace);
    snapshot_bytes_ = SnapshotBytes(last_snapshot);
    EndToEnd e;
    e.throughput_per_s = static_cast<double>(peers) / Median(phase_s_);
    e.in_degree_utilization =
        oscar::ComputeDegreeLoad(last->network()).utilization;
    e.sampling_msgs_per_peer =
        static_cast<double>(last->config().overlay->sampling_steps()) /
        static_cast<double>(peers);
    if (options_.trace) {
      RoutingProbe(last_snapshot, /*record=*/true);
      queue_peak_at_capacity_ = FindCapacity(last_snapshot).queue_peak;
      GrownTopology grown;
      grown.snapshot = std::move(last_snapshot);
      grown.overlay = last->config().overlay;
      grown.keys = last->config().key_distribution;
      grown.degrees = last->config().degree_distribution;
      SimProbe(grown, peers, /*record=*/true);
    } else {
      QualityProbe(last_snapshot, kQualityRate, &e);
      e.serve_capacity_per_s = FindCapacity(last_snapshot).per_s;
    }
    Finish(e);
  }

  /// serve: LoadGenerator::Run, 200k uniform lookups routed over the
  /// frozen snapshot on kThreads, then replayed through one virtual-time
  /// serving cell (offered kProbeRate/s, admission policy none).
  void ServeWorkload() {
    const size_t peers = scale_.serve_peers;
    const size_t lookups = scale_.serve_lookups;
    const Topologies tops = SetUp(peers);
    const TopologySnapshot& snapshot = tops.plain.snapshot;
    Network scratch;
    Restore(snapshot, &scratch, options_.trace);
    EndToEnd e;
    e.in_degree_utilization = oscar::ComputeDegreeLoad(scratch).utilization;
    e.sampling_msgs_per_peer =
        static_cast<double>(tops.plain.overlay->sampling_steps()) /
        static_cast<double>(peers);

    CheckServe(Serve(snapshot, scale_.serve_warmup, kThreads, {kProbeRate}),
               scale_.serve_warmup);
    std::optional<Fingerprint> reference;
    ServeReport report;
    Repeat([&](bool traced) {
      double seconds = 0.0;
      {
        ScopedSpan rep(kRepSpan, traced, true);
        seconds = Timed([&] {
          ScopedSpan span(kServeSpan, traced, true);
          report = Serve(snapshot, lookups, kThreads, {kProbeRate});
        });
        if (traced) rep_windows_.push_back({rep.id(), {}});
      }
      CheckServe(report, lookups);
      CheckSame(&reference, ServeFingerprint(report), "serve report");
      if (traced) {
        serves_.push_back({report.route_wall_s, seconds,
                           static_cast<double>(lookups),
                           report.mean_messages});
      }
      return seconds;
    });
    e.throughput_per_s = static_cast<double>(lookups) / Median(phase_s_);
    e.search_cost_msgs = report.mean_messages;
    e.lookup_success = report.route_success_rate;
    e.lookup_p50_ms = report.cells[0].latency.p50_ms;
    e.lookup_p99_ms = report.cells[0].latency.p99_ms;
    const Capacity capacity = FindCapacity(snapshot);
    e.serve_capacity_per_s = capacity.per_s;
    queue_peak_at_capacity_ = capacity.queue_peak;
    if (options_.trace) {
      RoutingProbe(snapshot, /*record=*/false);
      SimProbe(tops.traced, peers, /*record=*/true);
    }
    Finish(e);
  }

  /// sim-steady: RestoreInto, then the read-only "baseline" scenario
  /// through the event engine, MessageSim and the live-Network stepper.
  void SimSteady() {
    const size_t peers = scale_.serve_peers;
    const size_t lookups = scale_.sim_lookups;
    const Topologies tops = SetUp(peers);
    Network scratch[2];  // One per topology, so delta restores stay valid.
    Restore(tops.plain.snapshot, &scratch[0], false);
    EndToEnd e;
    e.in_degree_utilization = oscar::ComputeDegreeLoad(scratch[0]).utilization;
    e.sampling_msgs_per_peer =
        static_cast<double>(tops.plain.overlay->sampling_steps()) /
        static_cast<double>(peers);

    ScenarioOptions base = Base(peers, scale_.sim_warmup);
    base.arrival_interval_ms = kSteadyIntervalMs;
    CheckScenario(Must(oscar::RunScenarioOn("baseline", base, tops.plain,
                                            &scratch[0]),
                       "RunScenarioOn"),
                  scale_.sim_warmup);
    std::optional<Fingerprint> reference;
    ScenarioResult result;
    base.lookups = lookups;
    RunScenarioReps("baseline", base, tops, scratch, &reference, &result);
    e.throughput_per_s = static_cast<double>(lookups) / Median(phase_s_);
    ScenarioQuality(result, &e);
    const Capacity capacity = FindCapacity(tops.plain.snapshot);
    e.serve_capacity_per_s = capacity.per_s;
    queue_peak_at_capacity_ = capacity.queue_peak;
    if (options_.trace) {
      RoutingProbe(tops.plain.snapshot, /*record=*/true);
      SimProbe(tops.traced, peers, /*record=*/false);
    }
    Finish(e);
  }

  /// churn-repair: RestoreInto, then "repair-vs-churn": churn joins and
  /// crashes, a region crash and 32 maintenance rounds race the lookups
  /// over the mutable Network. Quality is read off the repaired overlay.
  void ChurnRepair() {
    const size_t peers = scale_.churn_peers;
    const size_t lookups = scale_.churn_lookups;
    const Topologies tops = SetUp(peers);
    Network scratch[2];
    std::optional<Fingerprint> reference;
    ScenarioResult result;
    // The churn schedule is part of the dataset: which peers churn and
    // crash decides the repaired overlay's quality. --seed still picks
    // the probes' lookups.
    ScenarioOptions base = Base(peers, lookups);
    base.seed = options_.dataset_seed;
    // The last repetition's network, after churn and repair.
    const Network& repaired = *RunScenarioReps("repair-vs-churn", base, tops,
                                               scratch, &reference, &result);
    const TopologySnapshot after = Freeze(repaired, false);
    EndToEnd e;
    e.throughput_per_s = static_cast<double>(lookups) / Median(phase_s_);
    const Capacity capacity = FindCapacity(after);
    e.serve_capacity_per_s = capacity.per_s;
    queue_peak_at_capacity_ = capacity.queue_peak;
    // Latency comes from the repaired overlay, as grow's does from the
    // grown one: the scenario's own latencies are timeout-dominated and
    // multimodal (0, 1 or 2 ack timeouts of span/10 each).
    QualityProbe(after, kProbeRate, &e);
    e.search_cost_msgs = result.report.mean_hops + result.report.mean_wasted;
    e.lookup_success = result.report.success_rate;
    e.in_degree_utilization = oscar::ComputeDegreeLoad(repaired).utilization;
    e.sampling_msgs_per_peer =
        static_cast<double>(result.maintenance_sampling_steps) /
        static_cast<double>(peers);

    size_t pruned = 0;
    size_t rebuilt = 0;
    for (const oscar::MaintenanceRoundRecord& round : result.maintenance) {
      pruned += round.report.pruned_links;
      rebuilt += round.report.rebuilt_peers;
    }
    Detail("churn.crashed", static_cast<double>(result.crashed), "count");
    Detail("churn.joined", static_cast<double>(result.joined), "count");
    Detail("overlay.maint_rounds",
           static_cast<double>(result.maintenance.size()), "count");
    Detail("overlay.pruned_links", static_cast<double>(pruned), "count");
    Detail("overlay.rebuilt_peers", static_cast<double>(rebuilt), "count");
    Detail("sim.lost", static_cast<double>(result.report.lost_messages),
           "count");
    Detail("sim.timeouts", static_cast<double>(result.report.timeouts),
           "count");
    if (options_.trace) {
      RoutingProbe(after, /*record=*/true);
      SimProbe(tops.traced, peers, /*record=*/false);
    }
    Finish(e);
  }

  /// The measured phase of sim-steady and churn-repair: RestoreInto
  /// (timed on its own), the restore-identity check, RunScenarioOn.
  /// Returns the network the last repetition ran on.
  Network* RunScenarioReps(const std::string& scenario,
                           const ScenarioOptions& base,
                           const Topologies& tops, Network scratch[2],
                           std::optional<Fingerprint>* reference,
                           ScenarioResult* result) {
    const size_t lookups = base.lookups;
    Network* net = nullptr;
    Repeat([&](bool traced) {
      const GrownTopology& grown = tops.get(traced);
      net = &scratch[traced ? 1 : 0];
      const SamplerTotals before = CollectSamplerTotals();
      double seconds = 0.0;
      uint64_t span_id = 0;
      {
        ScopedSpan rep(kRepSpan, traced, true);
        seconds = Restore(grown.snapshot, net, traced);
        seconds += Timed([&] {
          ScopedSpan span(kScenarioSpan, traced, true);
          span_id = span.id();
          *result = Must(oscar::RunScenarioOn(scenario, base, grown, net),
                         "RunScenarioOn");
        });
        if (traced) {
          rep_windows_.push_back({rep.id(), CollectSamplerTotals() - before});
        }
      }
      CheckScenario(*result, lookups);
      MustOk(net->CheckInvariants(), "Network::CheckInvariants");
      Fingerprint fingerprint = ScenarioFingerprint(*result);
      fingerprint.digest = Digest(TopologySnapshot(*net));
      CheckSame(reference, fingerprint, "scenario result");
      if (traced) AddSimSample(span_id, *result);
      return seconds;
    });
    return net;
  }

  static void ScenarioQuality(const ScenarioResult& result, EndToEnd* e) {
    const oscar::MessageSimReport& r = result.report;
    e->search_cost_msgs = r.mean_hops + r.mean_wasted;
    e->lookup_success = r.success_rate;
    e->lookup_p50_ms = r.latency.p50_ms;
    e->lookup_p99_ms = r.latency.p99_ms;
  }

  // ---- Reporting ------------------------------------------------------

  void Add(const std::string& name, double value, const std::string& unit) {
    Expect(std::isfinite(value), "metric " + name + " is not finite");
    report_.metrics.push_back({name, std::isfinite(value) ? value : 0.0,
                               unit});
  }

  void Detail(const std::string& name, double value,
              const std::string& unit) {
    report_.details.push_back({name, value, unit});
  }

  void Finish(const EndToEnd& e) {
    report_.timings.emplace_back("setup_s", Summarize(setup_s_));
    report_.timings.emplace_back("setup_s.wall", Summarize(wall_setup_s_));
    report_.timings.emplace_back("phase_s", Summarize(phase_s_));
    report_.timings.emplace_back("phase_s.wall", Summarize(wall_phase_s_));
    report_.timings.emplace_back("reference_s", Summarize(reference_s_));
    if (options_.trace) {
      report_.timings.emplace_back("phase_s.traced",
                                   Summarize(traced_phase_s_));
      EmitLayers();
      return;
    }
    Add("setup_s", Median(setup_s_), "s");
    Add("throughput_per_s", e.throughput_per_s, "1/s");
    Add("peak_rss_mb", peak_rss_mb_, "MiB");
    Add("search_cost_msgs", e.search_cost_msgs, "msgs/lookup");
    Add("lookup_success", e.lookup_success, "fraction");
    Add("lookup_p50_ms", e.lookup_p50_ms, "ms");
    Add("lookup_p99_ms", e.lookup_p99_ms, "ms");
    Add("serve_capacity_per_s", e.serve_capacity_per_s, "1/s");
    Add("in_degree_utilization", e.in_degree_utilization, "fraction");
    Add("sampling_msgs_per_peer", e.sampling_msgs_per_peer, "msgs/peer");
  }

  /// Per-layer metrics of a trace run. Layers are src/ modules; every
  /// workload reports every metric (each one grows a topology, routes
  /// over a snapshot and runs the event engine, in its phase or in a
  /// probe).
  void EmitLayers() {
    report_.spans = CollectSpans();
    const SpanIndex index(report_.spans);

    std::vector<double> grow_s;
    std::vector<double> grow_self_s;
    for (const Span* run : index.Below(0, kRunSpan)) {
      grow_s.push_back(static_cast<double>(Duration(*run)) / 1e9);
      grow_self_s.push_back(static_cast<double>(index.SelfNs(run->id)) / 1e9);
    }
    Add("core.grow_s", Median(grow_s), "s");
    Add("core.rewire_s", Median(rewire_s_), "s");
    Add("core.grow_self_s", Median(grow_self_s), "s");
    Add("core.freeze_ms", Median(freeze_ms_), "ms");
    Add("core.restore_ms", Median(restore_ms_), "ms");
    Add("core.snapshot_bytes", snapshot_bytes_, "bytes");

    Pass pass;
    if (setup_window_.root != 0) pass.Add(index, setup_window_, 1.0);
    for (const Window& window : rep_windows_) {
      pass.Add(index, window, 1.0 / static_cast<double>(rep_windows_.size()));
    }
    const double walk_ns = pass.csr.busy_ns + pass.live.busy_ns;
    Add("overlay.build_links.calls", pass.build_calls, "count");
    Add("overlay.build_links.busy_s", pass.build_ns / 1e9, "s");
    Add("overlay.build_links.ns_per_call",
        Ratio(pass.build_ns, pass.build_calls), "ns");
    Add("overlay.plan_links.calls", pass.plan_calls, "count");
    Add("overlay.plan_links.busy_s", pass.plan_ns / 1e9, "s");
    Add("overlay.plan_links.ns_per_call", Ratio(pass.plan_ns, pass.plan_calls),
        "ns");
    Add("overlay.plan_parallelism", Ratio(pass.plan_ns, pass.plan_wall_ns),
        "ratio");
    Add("overlay.self_s", (pass.build_ns + pass.plan_ns - walk_ns) / 1e9, "s");
    for (const auto& [name, walks] :
         {std::pair<const char*, const Pass::Walks&>{"csr", pass.csr},
          {"live", pass.live}}) {
      const std::string prefix = std::string("sampling.walk_") + name;
      Add(prefix + ".calls", walks.calls, "count");
      Add(prefix + ".steps", walks.steps, "count");
      Add(prefix + ".busy_s", walks.busy_ns / 1e9, "s");
      Add(prefix + ".ns_per_step", Ratio(walks.busy_ns, walks.steps), "ns");
    }
    Add("sampling.steps_per_call",
        Ratio(pass.csr.steps + pass.live.steps,
              pass.csr.calls + pass.live.calls),
        "count");
    Add("sampling.fail_share",
           Ratio(pass.csr.failed + pass.live.failed,
                 pass.csr.calls + pass.live.calls),
           "fraction");

    std::vector<double> route_s;
    std::vector<double> msgs_per_s;
    std::vector<double> sweep_s;
    std::vector<double> sweep_ns;
    for (const ServeSample& s : serves_) {
      route_s.push_back(s.route_wall_s);
      msgs_per_s.push_back(Ratio(s.lookups * s.mean_messages, s.route_wall_s));
      sweep_s.push_back(s.run_wall_s - s.route_wall_s);
      sweep_ns.push_back(Ratio((s.run_wall_s - s.route_wall_s) * 1e9,
                               s.lookups));
    }
    Add("routing.route_s", Median(route_s), "s");
    Add("routing.csr_msgs_per_s", Median(msgs_per_s), "1/s");
    Add("routing.msgs_per_lookup",
        serves_.empty() ? 0.0 : serves_.front().mean_messages, "msgs/lookup");
    Add("routing.thread_speedup", thread_speedup_, "ratio");
    Add("serve.sweep_s", Median(sweep_s), "s");
    Add("serve.sweep_ns_per_lookup", Median(sweep_ns), "ns");
    Add("serve.queue_peak_at_capacity", queue_peak_at_capacity_, "count");

    std::vector<double> ns_per_event;
    std::vector<double> self_s;
    for (const SimSample& s : sims_) {
      const double self_ns = static_cast<double>(index.SelfNs(s.span));
      ns_per_event.push_back(Ratio(self_ns, s.events));
      self_s.push_back(self_ns / 1e9);
    }
    const SimSample first = sims_.empty() ? SimSample{} : sims_.front();
    Add("sim.ns_per_event", Median(ns_per_event), "ns");
    Add("sim.events_per_lookup", Ratio(first.events, first.submitted),
        "count");
    Add("sim.msgs_per_lookup", Ratio(first.messages, first.submitted),
        "msgs/lookup");
    Add("sim.peak_in_flight", first.peak_in_flight, "count");
    Add("sim.scenario_self_s", Median(self_s), "s");

    Add("trace.otrace_bytes_per_event", trace_bytes_per_event_, "bytes");
    Add("trace.otrace_ns_per_event", trace_ns_per_event_, "ns");

    std::vector<double> coverage;
    for (const Window& window : rep_windows_) {
      const Span& rep = index.at(window.root);
      coverage.push_back(1.0 - Ratio(static_cast<double>(index.SelfNs(rep.id)),
                                     static_cast<double>(Duration(rep))));
    }
    Add("bench.tracing_overhead",
        Ratio(Median(traced_phase_s_), Median(phase_s_)) - 1.0, "ratio");
    Add("bench.span_coverage", Median(coverage), "fraction");
    // Host speed during this run: the layer times above are wall times.
    Add("bench.reference_ms", 1000.0 * Median(reference_s_), "ms");
  }

  const RunOptions options_;
  const Scale scale_;
  RunReport report_;
  HostReference reference_;

  // Set-up growths (serve, sim-steady, churn-repair).
  ScenarioOptions setup_base_;
  size_t pending_setups_ = 0;  // Growths still due in this run.
  std::optional<Fingerprint> setup_digest_;

  // Timings in reference seconds (reference.h), and their wall times.
  std::vector<double> setup_s_;
  std::vector<double> wall_setup_s_;
  std::vector<double> phase_s_;         // Untraced repetitions.
  std::vector<double> traced_phase_s_;  // Traced repetitions.
  std::vector<double> wall_phase_s_;    // Untraced repetitions.
  std::vector<double> rep_kernel_s_;    // Kernel time around each rep.
  std::vector<double> reference_s_;     // Every kernel sample.
  double peak_rss_mb_ = 0.0;  // After set-up and the measured phase.
  double snapshot_bytes_ = 0.0;
  double queue_peak_at_capacity_ = 0.0;

  // Trace runs only.
  Window setup_window_;
  std::vector<Window> rep_windows_;
  std::vector<double> rewire_s_;
  std::vector<double> freeze_ms_;
  std::vector<double> restore_ms_;
  std::vector<ServeSample> serves_;
  std::vector<SimSample> sims_;
  double thread_speedup_ = 0.0;
  double trace_bytes_per_event_ = 0.0;
  double trace_ns_per_event_ = 0.0;
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"grow", "serve",
                                                  "sim-steady",
                                                  "churn-repair"};
  return kNames;
}

RunReport RunWorkload(const RunOptions& options) {
  return WorkloadRun(options).Execute();
}

}  // namespace oscar_bench
