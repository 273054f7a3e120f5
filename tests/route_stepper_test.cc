// Equivalence guard for the step-wise routing interface: driving a
// stepper one hop at a time by a reference loop (Drive, budgets written
// out) must reproduce Run and Route exactly — success, hops, wasted,
// terminal and the full visited path — on both intact and heavily
// crashed networks. An oracle check pins the step
// kernels to straightforward reference implementations, step by step.

#include "routing/route_stepper.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "churn/churn.h"
#include "overlay/kleinberg/kleinberg_overlay.h"

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

/// The backtracking message budget, written out independently of
/// BacktrackingStepper::OverBudget so the reference cannot drift with it.
size_t ReferenceMessageBudget(NetworkView net) {
  return 8 * net.alive_count() + 64;
}

/// The reference drive loop that Run and Route are held to: Start,
/// Step until done or over budget (greedy bounds steps, backtracking
/// bounds messages), then Abandon. It must not call Run or Route.
template <typename Stepper>
RouteResult Drive(Stepper* stepper, const Network& net, PeerId source,
                  KeyId target) {
  stepper->Start(net, source, target);
  if constexpr (std::is_same_v<Stepper, GreedyStepper>) {
    const size_t max_steps = 4 * net.alive_count() + 16;
    for (size_t step = 0; step < max_steps && !stepper->done(); ++step) {
      stepper->Step(net);
    }
  } else {
    const size_t max_messages = ReferenceMessageBudget(net);
    while (!stepper->done() && stepper->result().hops +
                                       stepper->result().wasted <
                                   max_messages) {
      stepper->Step(net);
    }
  }
  if (!stepper->done()) stepper->Abandon(net);
  return stepper->result();
}

void ExpectSameRoute(const RouteResult& a, const RouteResult& b) {
  EXPECT_EQ(a.success, b.success);
  EXPECT_EQ(a.hops, b.hops);
  EXPECT_EQ(a.wasted, b.wasted);
  EXPECT_EQ(a.terminal, b.terminal);
  EXPECT_EQ(a.path, b.path);
}

void CheckEquivalence(const Network& net, uint64_t query_seed) {
  GreedyStepper greedy_stepper, greedy_runner;
  BacktrackingStepper backtracking_stepper, backtracking_runner;
  Rng rng(query_seed);
  const std::vector<PeerId> peers = net.AlivePeers();
  for (int q = 0; q < 300; ++q) {
    const KeyId key = KeyId::FromUnit(rng.NextDouble());
    const PeerId source =
        peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
    const RouteResult greedy = Drive(&greedy_stepper, net, source, key);
    ExpectSameRoute(greedy, greedy_runner.Run(net, source, key));
    ExpectSameRoute(greedy, Route(Routing::kGreedy, net, source, key));
    const RouteResult backtracking =
        Drive(&backtracking_stepper, net, source, key);
    ExpectSameRoute(backtracking, backtracking_runner.Run(net, source, key));
    ExpectSameRoute(backtracking,
                    Route(Routing::kBacktracking, net, source, key));
  }
}

TEST(RouteStepperTest, MatchesRouteOnIntactNetwork) {
  CheckEquivalence(LinkedNetwork(250, 11), 12);
}

TEST(RouteStepperTest, MatchesRouteUnderHeavyCrashes) {
  Network net = LinkedNetwork(300, 13);
  Rng churn_rng(14);
  ASSERT_TRUE(CrashFraction(&net, 0.33, &churn_rng).ok());
  CheckEquivalence(net, 15);
}

TEST(RouteStepperTest, StepperIsReusableAcrossRoutes) {
  Network net = LinkedNetwork(120, 16);
  BacktrackingStepper stepper;
  Rng rng(17);
  const std::vector<PeerId> peers = net.AlivePeers();
  for (int q = 0; q < 50; ++q) {
    const KeyId key = KeyId::FromUnit(rng.NextDouble());
    const PeerId source =
        peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
    ExpectSameRoute(Drive(&stepper, net, source, key),
                    Route(Routing::kBacktracking, net, source, key));
  }
}

TEST(RouteStepperTest, FailDeliveryRoutesAroundMidFlightCrash) {
  Network net = LinkedNetwork(200, 18);
  BacktrackingStepper stepper;
  Rng rng(19);
  const std::vector<PeerId> peers = net.AlivePeers();
  int exercised = 0;
  for (int q = 0; q < 100 && exercised < 20; ++q) {
    const KeyId key = KeyId::FromUnit(rng.NextDouble());
    const PeerId source =
        peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
    // Work on a private copy: the crash below must not leak into later
    // iterations.
    Network copy = net;
    stepper.Start(copy, source, key);
    if (stepper.done()) continue;
    const RouteStep first = stepper.Step(copy);
    if (first.kind != StepKind::kForward) continue;
    // The chosen next hop dies while the message is in flight.
    copy.CrashMany({first.to});
    if (!copy.alive(source) || copy.alive_count() < 2) continue;
    const uint32_t hops_before = stepper.result().hops;
    const uint32_t wasted_before = stepper.result().wasted;
    ASSERT_TRUE(stepper.FailDelivery(copy));
    EXPECT_EQ(stepper.current(), source);  // Back at the sender.
    EXPECT_EQ(stepper.result().hops, hops_before - 1);  // Hop refunded...
    EXPECT_EQ(stepper.result().wasted, wasted_before + 1);  // ...as waste.
    // Routing continues around the corpse and still succeeds.
    const RouteResult finished = [&] {
      while (!stepper.done() && !stepper.OverBudget(copy)) stepper.Step(copy);
      if (!stepper.done()) stepper.Abandon(copy);
      return stepper.result();
    }();
    if (copy.OwnerOf(key).has_value()) {
      EXPECT_TRUE(finished.success);
      EXPECT_EQ(finished.terminal, *copy.OwnerOf(key));
    }
    ++exercised;
  }
  EXPECT_GE(exercised, 20);
}

TEST(RouteStepperTest, FailDeliveryAtOriginReportsNothingToRevert) {
  Network net = LinkedNetwork(50, 20);
  BacktrackingStepper stepper;
  const PeerId source = net.AlivePeers().front();
  stepper.Start(net, source, net.key(source));
  EXPECT_FALSE(stepper.FailDelivery(net));
}

// ---- Reuse: one stepper across many routes ------------------------------
//
// The message engine restarts one stepper per lookup slot, so a stepper
// must carry nothing from one route into the next: its visited sets
// keep their tables, and Start must empty them.

/// What a batch of routes exercised, so the reuse test can show that it
/// covered dead probes, failed deliveries and long routes.
struct Exercised {
  size_t dead_probes = 0;
  size_t failed_deliveries = 0;
  size_t longest_route = 0;
};

/// Drives one backtracking lookup on `net`, a private copy. When
/// `crash_at` > 0, the peer the crash_at-th forward went to crashes while
/// the message is in flight, and the stepper learns it by FailDelivery,
/// as the message engine's ack timeout tells it.
RouteResult DriveWithCrash(BacktrackingStepper* stepper, Network net,
                           PeerId source, KeyId target, uint32_t crash_at,
                           Exercised* seen) {
  stepper->Start(net, source, target);
  uint32_t forwards = 0;
  while (!stepper->done() && !stepper->OverBudget(net)) {
    const RouteStep step = stepper->Step(net);
    seen->dead_probes += step.dead_probes;
    if (step.kind == StepKind::kForward && ++forwards == crash_at) {
      net.CrashMany({step.to});
      if (stepper->FailDelivery(net)) ++seen->failed_deliveries;
    }
  }
  if (!stepper->done()) stepper->Abandon(net);
  seen->longest_route =
      std::max(seen->longest_route, stepper->result().path.size());
  return stepper->result();
}

/// A ring with no long links: routes walk it neighbor by neighbor, so
/// they run to a thousand hops and more and grow the visited set's table.
Network BareRing(size_t n, uint64_t seed) {
  Network net;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    net.Join(KeyId::FromUnit(rng.NextDouble()), DegreeCaps{8, 8});
  }
  return net;
}

TEST(RouteStepperTest, ReusedSteppersMatchFreshOnesAcrossManyRoutes) {
  Network crashed = LinkedNetwork(400, 31);
  Rng crash_rng(32);
  std::vector<PeerId> victims = crashed.AlivePeers();
  for (size_t i = 0; i < victims.size(); ++i) {  // Fisher-Yates shuffle.
    std::swap(victims[i],
              victims[i + static_cast<size_t>(
                               crash_rng.UniformInt(victims.size() - i))]);
  }
  victims.resize(victims.size() / 4);
  crashed.CrashMany(victims);
  const Network ring = BareRing(3000, 33);

  BacktrackingStepper reused_backtracking;
  GreedyStepper reused_greedy;
  Exercised backtracking_seen;
  size_t greedy_dead_probes = 0;
  Rng rng(34);
  for (int q = 0; q < 2000; ++q) {
    // Every 100th route crosses the bare ring: a long route, after and
    // before which the short ones reuse its grown tables.
    const Network& net = q % 100 == 99 ? ring : crashed;
    const std::vector<PeerId> peers = net.AlivePeers();
    const KeyId key = KeyId::FromUnit(rng.NextDouble());
    const PeerId source =
        peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
    const uint32_t crash_at = static_cast<uint32_t>(q % 4);  // 0 = none.

    BacktrackingStepper fresh_backtracking;
    Exercised ignored;
    ExpectSameRoute(DriveWithCrash(&reused_backtracking, net, source, key,
                                   crash_at, &backtracking_seen),
                    DriveWithCrash(&fresh_backtracking, net, source, key,
                                   crash_at, &ignored));

    GreedyStepper fresh_greedy;
    reused_greedy.Start(net, source, key);
    while (!reused_greedy.done()) {
      greedy_dead_probes += reused_greedy.Step(net).dead_probes;
    }
    ExpectSameRoute(reused_greedy.result(),
                    fresh_greedy.Run(net, source, key));
    ExpectSameRoute(reused_greedy.Run(net, source, key),
                    fresh_greedy.result());
  }
  EXPECT_GT(backtracking_seen.dead_probes, 1000u);
  EXPECT_GT(backtracking_seen.failed_deliveries, 1000u);
  EXPECT_GT(backtracking_seen.longest_route, 1000u);
  EXPECT_GT(greedy_dead_probes, 1000u);
}

TEST(PeerIdSetTest, AgreesWithUnorderedSetThroughGrowthAndClear) {
  PeerIdSet set;
  std::unordered_set<PeerId> reference;
  Rng rng(35);
  // Each round draws ids from a range of its own size, so small rounds
  // repeat ids and large ones grow the table; clear() between rounds
  // reuses whatever table the largest round left.
  const size_t sizes[] = {0, 1, 7, 5000, 3, 64, 20000, 2, 300, 1};
  for (const size_t size : sizes) {
    set.clear();
    reference.clear();
    const uint64_t range = 2 * size + 1;
    for (size_t i = 0; i < 2 * size + 4; ++i) {
      PeerId id = static_cast<PeerId>(rng.UniformInt(range));
      // The extremes: 0, and the id the table uses to mark free slots.
      if (i % 97 == 1) id = 0;
      if (i % 89 == 2) id = UINT32_MAX;
      const PeerId probe = static_cast<PeerId>(rng.UniformInt(range));
      ASSERT_EQ(set.contains(probe), reference.count(probe) != 0);
      ASSERT_EQ(set.insert(id), reference.insert(id).second);
      ASSERT_TRUE(set.contains(id));
    }
    for (uint64_t id = 0; id < range; ++id) {
      ASSERT_EQ(set.contains(static_cast<PeerId>(id)),
                reference.count(static_cast<PeerId>(id)) != 0);
    }
    ASSERT_EQ(set.contains(UINT32_MAX), reference.count(UINT32_MAX) != 0);
  }
  set.clear();
  for (PeerId id : {PeerId{0}, PeerId{1}, PeerId{4999}, UINT32_MAX}) {
    EXPECT_FALSE(set.contains(id));
  }
}

// ---- Oracle: reference step kernels --------------------------------------
//
// Straightforward versions of both step algorithms, read through the
// view's per-call accessors: the owner by OwnerOf's binary search, the
// row from SuccessorOf/PredecessorOf/OutLinks, greedy as three full
// passes, backtracking as a scan of the row sorted by (distance, id).

/// The router row: successor, predecessor when distinct, long links.
std::vector<PeerId> OracleRow(NetworkView net, PeerId id) {
  std::vector<PeerId> row;
  const std::optional<PeerId> succ = net.SuccessorOf(id);
  const std::optional<PeerId> pred = net.PredecessorOf(id);
  if (succ.has_value()) row.push_back(*succ);
  if (pred.has_value() && pred != succ) row.push_back(*pred);
  for (PeerId target : net.OutLinks(id)) row.push_back(target);
  return row;
}

bool OracleOwns(NetworkView net, PeerId id, KeyId target) {
  const std::optional<PeerId> owner = net.OwnerOf(target);
  return owner.has_value() && *owner == id;
}

class OracleGreedy {
 public:
  void Start(NetworkView net, PeerId source, KeyId target) {
    result_ = RouteResult{};
    result_.terminal = source;
    result_.path = {source};
    target_ = target;
    current_ = source;
    done_ = !net.OwnerOf(target).has_value() || !net.alive(source);
  }

  RouteStep Step(NetworkView net) {
    RouteStep step;
    step.from = current_;
    if (OracleOwns(net, current_, target_)) {
      result_.success = true;
      result_.terminal = current_;
      done_ = true;
      step.kind = StepKind::kArrived;
      return step;
    }
    const std::vector<PeerId> row = OracleRow(net, current_);
    const auto distance = [&](PeerId id) {
      return RingDistance(net.key(id), target_);
    };
    const uint64_t here = distance(current_);
    PeerId best = current_;
    uint64_t best_distance = here;
    for (PeerId candidate : row) {
      if (net.alive(candidate) && distance(candidate) < best_distance) {
        best = candidate;
        best_distance = distance(candidate);
      }
    }
    if (best == current_) {
      result_.terminal = current_;
      done_ = true;
      step.kind = StepKind::kStuck;
      return step;
    }
    const uint64_t band =
        best_distance + best_distance / 2 < best_distance
            ? UINT64_MAX
            : best_distance + best_distance / 2;
    for (PeerId candidate : row) {
      if (!net.alive(candidate) || candidate == best) continue;
      const uint64_t d = distance(candidate);
      if (d < here && d <= band &&
          net.caps(candidate).max_in > net.caps(best).max_in) {
        best = candidate;
      }
    }
    for (PeerId candidate : row) {
      if (!net.alive(candidate) && distance(candidate) < distance(best)) {
        ++result_.wasted;
        ++step.dead_probes;
      }
    }
    current_ = best;
    ++result_.hops;
    result_.path.push_back(best);
    result_.terminal = best;
    step.kind = StepKind::kForward;
    step.to = best;
    return step;
  }

  bool done() const { return done_; }
  const RouteResult& result() const { return result_; }
  PeerId current() const { return current_; }

 private:
  RouteResult result_;
  KeyId target_;
  PeerId current_ = 0;
  bool done_ = true;
};

class OracleBacktracking {
 public:
  void Start(NetworkView net, PeerId source, KeyId target) {
    result_ = RouteResult{};
    result_.terminal = source;
    result_.path = {source};
    target_ = target;
    source_ = source;
    visited_ = {source};
    probed_dead_.clear();
    stack_ = {source};
    done_ = !net.OwnerOf(target).has_value() || !net.alive(source);
  }

  RouteStep Step(NetworkView net) {
    RouteStep step;
    const PeerId current = stack_.back();
    step.from = current;
    if (OracleOwns(net, current, target_)) {
      result_.success = true;
      result_.terminal = current;
      done_ = true;
      step.kind = StepKind::kArrived;
      return step;
    }
    std::vector<std::pair<uint64_t, PeerId>> ordered;
    for (PeerId candidate : OracleRow(net, current)) {
      ordered.emplace_back(RingDistance(net.key(candidate), target_),
                           candidate);
    }
    std::sort(ordered.begin(), ordered.end());
    for (const auto& [distance, candidate] : ordered) {
      (void)distance;
      if (visited_.count(candidate) != 0) continue;
      if (!net.alive(candidate)) {
        if (probed_dead_.insert(candidate).second) {
          ++result_.wasted;
          ++step.dead_probes;
        }
        continue;
      }
      visited_.insert(candidate);
      stack_.push_back(candidate);
      ++result_.hops;
      result_.path.push_back(candidate);
      result_.terminal = candidate;
      step.kind = StepKind::kForward;
      step.to = candidate;
      return step;
    }
    stack_.pop_back();
    ++result_.wasted;
    if (stack_.empty()) {
      result_.terminal = source_;
      done_ = true;
      step.kind = StepKind::kStuck;
      return step;
    }
    result_.terminal = stack_.back();
    step.kind = StepKind::kBacktrack;
    step.to = stack_.back();
    return step;
  }

  bool FailDelivery() {
    if (done_ || stack_.size() < 2) return false;
    const PeerId failed = stack_.back();
    stack_.pop_back();
    ++result_.wasted;
    if (result_.path.back() == failed) {
      result_.path.pop_back();
      --result_.hops;
    }
    probed_dead_.insert(failed);
    result_.terminal = stack_.back();
    return true;
  }

  bool done() const { return done_; }
  const RouteResult& result() const { return result_; }
  PeerId current() const { return stack_.empty() ? source_ : stack_.back(); }

 private:
  RouteResult result_;
  KeyId target_;
  PeerId source_ = 0;
  bool done_ = true;
  std::unordered_set<PeerId> visited_;
  std::unordered_set<PeerId> probed_dead_;
  std::vector<PeerId> stack_;
};

/// What a lockstep run exercised, so the test can prove its coverage.
struct OracleCoverage {
  size_t steps = 0;
  size_t dead_probe_steps = 0;
  size_t failed_deliveries = 0;
  size_t mid_route_crashes = 0;
  size_t band_moves = 0;  // Greedy hops that did not take the closest.
  // Steps that scanned a row whose peer has no dangling out-link (the
  // passes that read no liveness), and ones with a dangling link.
  size_t clean_row_steps = 0;
  size_t dangling_row_steps = 0;
  // Backtracking steps whose smallest alive (distance, id) entry was
  // already visited: the ones that fall back to the exact scan, on rows
  // without and with a dangling link.
  size_t clean_visited_argmin_steps = 0;
  size_t dangling_visited_argmin_steps = 0;
};

/// The alive row entry with the smallest (distance to `target`, id), or
/// nullopt for a row without one.
std::optional<PeerId> RowArgmin(NetworkView net, PeerId id, KeyId target) {
  std::optional<std::pair<uint64_t, PeerId>> best;
  for (PeerId candidate : OracleRow(net, id)) {
    if (!net.alive(candidate)) continue;
    const std::pair<uint64_t, PeerId> scored(
        RingDistance(net.key(candidate), target), candidate);
    if (!best.has_value() || scored < *best) best = scored;
  }
  if (!best.has_value()) return std::nullopt;
  return best->second;
}

/// Steps the oracle and the kernel side by side from `source` toward
/// `target` over `net`, requiring identical steps and route state after
/// every call. For the backtracking kernel (the one MessageSim drives,
/// and so the one with FailDelivery), every forward is reported
/// undelivered with probability 1/6: when `crash_in` is given (it must
/// be the Network `net` reads), the failed hop's peer is crashed first,
/// as MessageSim would see it; otherwise the hop fails on a frozen
/// backend as a lost message would. With `crash_in`, other steps may
/// crash a peer the route already passed.
template <typename Oracle, typename Kernel>
void ExpectLockstep(NetworkView net, Network* crash_in, PeerId source,
                    KeyId target, Rng* rng, OracleCoverage* coverage) {
  Oracle oracle;
  Kernel kernel;
  oracle.Start(net, source, target);
  kernel.Start(net, source, target);
  ASSERT_EQ(oracle.done(), kernel.done());
  const size_t budget = ReferenceMessageBudget(net);
  for (size_t call = 0; call < budget && !oracle.done(); ++call) {
    const RouteStep want = oracle.Step(net);
    const RouteStep got = kernel.Step(net);
    ASSERT_EQ(want.kind, got.kind) << "call " << call;
    ASSERT_EQ(want.from, got.from);
    ASSERT_EQ(want.to, got.to);
    ASSERT_EQ(want.dead_probes, got.dead_probes);
    ASSERT_EQ(oracle.done(), kernel.done());
    ++coverage->steps;
    if (got.dead_probes > 0) ++coverage->dead_probe_steps;
    if (got.kind != StepKind::kArrived) {
      const uint32_t dangling = net.Visit(
          [&](const auto& topo) { return topo.dangling_out(got.from); });
      ++(dangling == 0 ? coverage->clean_row_steps
                       : coverage->dangling_row_steps);
      if (std::is_same_v<Kernel, BacktrackingStepper>) {
        // The kernel forwards to an unvisited argmin; anything else
        // means the argmin was visited.
        const std::optional<PeerId> argmin =
            RowArgmin(net, got.from, target);
        if (argmin.has_value() &&
            (got.kind != StepKind::kForward || got.to != *argmin)) {
          ++(dangling == 0 ? coverage->clean_visited_argmin_steps
                           : coverage->dangling_visited_argmin_steps);
        }
      }
    }
    if (got.kind == StepKind::kForward) {
      const std::vector<PeerId> row = OracleRow(net, got.from);
      const bool closest = std::none_of(row.begin(), row.end(), [&](PeerId p) {
        return net.alive(p) && RingDistance(net.key(p), target) <
                                   RingDistance(net.key(got.to), target);
      });
      if (!closest) ++coverage->band_moves;
    }
    const bool can_crash =
        crash_in != nullptr && crash_in->alive_count() >= 3;
    bool failed = false;
    if constexpr (std::is_same_v<Kernel, BacktrackingStepper>) {
      if (got.kind == StepKind::kForward && got.to != source &&
          rng->UniformInt(6) == 0 && (crash_in == nullptr || can_crash)) {
        if (crash_in != nullptr) crash_in->CrashMany({got.to});
        ASSERT_EQ(oracle.FailDelivery(), kernel.FailDelivery(net));
        ++coverage->failed_deliveries;
        failed = true;
      }
    }
    if (!failed && can_crash && rng->UniformInt(4) == 0) {
      // Churn mid-route: a peer the route already visited crashes (the
      // dead end it just backtracked from, else an earlier hop), so
      // later scans meet a dead peer that is visited.
      const std::vector<PeerId>& path = kernel.result().path;
      const PeerId victim =
          got.kind == StepKind::kBacktrack
              ? got.from
              : path[static_cast<size_t>(rng->UniformInt(path.size()))];
      if (victim != source && victim != kernel.current() &&
          crash_in->alive(victim)) {
        crash_in->CrashMany({victim});
        ++coverage->mid_route_crashes;
      }
    }
    const RouteResult& a = oracle.result();
    const RouteResult& b = kernel.result();
    ASSERT_EQ(a.hops, b.hops);
    ASSERT_EQ(a.wasted, b.wasted);
    ASSERT_EQ(a.terminal, b.terminal);
    ASSERT_EQ(a.success, b.success);
    ASSERT_EQ(a.path, b.path);
    ASSERT_EQ(oracle.current(), kernel.current());
  }
}

/// A Kleinberg network with heterogeneous in-budgets (so the greedy band
/// relaxation has a choice to make) in which every peer also tries a
/// long link to its ring successor: those rows list one peer twice.
Network MixedCapsNetwork(size_t n, uint64_t seed) {
  Network net;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const auto in = static_cast<uint32_t>(2 + rng.UniformInt(15));
    net.Join(KeyId::FromUnit(rng.NextDouble()), DegreeCaps{in, 10});
  }
  for (PeerId id : net.AlivePeers()) {
    net.AddLongLink(id, *net.SuccessorOf(id));
  }
  KleinbergOverlay overlay;
  for (PeerId id : net.AlivePeers()) {
    EXPECT_TRUE(overlay.BuildLinks(&net, id, &rng).ok());
  }
  return net;
}

/// Row entries that are a ring neighbor and a long link at once.
size_t DuplicateRowEntries(const Network& net) {
  size_t duplicates = 0;
  for (PeerId id : net.AlivePeers()) {
    const std::vector<PeerId> row = OracleRow(net, id);
    const std::unordered_set<PeerId> distinct(row.begin(), row.end());
    duplicates += row.size() - distinct.size();
  }
  return duplicates;
}

/// A key equidistant from two alive long links of `source`, so the
/// first step can score a tie between distinct peers — where the first
/// and the last minimum differ. nullopt when no pair fits.
std::optional<KeyId> TieTarget(const Network& net, PeerId source) {
  std::vector<uint64_t> keys;
  for (PeerId link : net.OutLinks(source)) {
    if (net.alive(link)) keys.push_back(net.key(link).raw);
  }
  for (size_t i = 0; i + 1 < keys.size(); ++i) {
    const uint64_t cw = keys[i + 1] - keys[i];
    if (cw % 2 != 0) continue;
    return KeyId::FromRaw(cw <= (uint64_t{1} << 63)
                              ? keys[i] + cw / 2
                              : keys[i + 1] + (keys[i] - keys[i + 1]) / 2);
  }
  return std::nullopt;
}

template <typename Oracle, typename Kernel>
void CheckKernelAgainstOracle() {
  OracleCoverage coverage;
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    for (double crash : {0.0, 0.15, 0.33}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << ", crash " << crash);
      Network net = MixedCapsNetwork(240, seed);
      ASSERT_GT(DuplicateRowEntries(net), 0u);
      Rng rng(seed * 10 + static_cast<uint64_t>(crash * 100));
      if (crash > 0.0) {
        ASSERT_TRUE(CrashFraction(&net, crash, &rng).ok());
      }
      const TopologySnapshot snap(net);
      const std::vector<PeerId> peers = net.AlivePeers();
      for (int q = 0; q < 40; ++q) {
        KeyId key = KeyId::FromUnit(rng.NextDouble());
        const PeerId source =
            peers[static_cast<size_t>(rng.UniformInt(peers.size()))];
        if (q % 2 == 1) key = TieTarget(net, source).value_or(key);
        ExpectLockstep<Oracle, Kernel>(snap, nullptr, source, key, &rng,
                                       &coverage);
        // The live backend works on a private copy: its crashes must
        // not leak into later queries.
        Network copy = net;
        ExpectLockstep<Oracle, Kernel>(copy, &copy, source, key, &rng,
                                       &coverage);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
  EXPECT_GT(coverage.steps, 5000u);
  EXPECT_GT(coverage.dead_probe_steps, 250u);
  EXPECT_GT(coverage.mid_route_crashes, 200u);
  EXPECT_GT(coverage.clean_row_steps, 1000u);
  EXPECT_GT(coverage.dangling_row_steps, 1000u);
  if (std::is_same_v<Kernel, GreedyStepper>) {
    EXPECT_GT(coverage.band_moves, 200u);
  } else {
    EXPECT_GT(coverage.failed_deliveries, 1000u);
    EXPECT_GT(coverage.clean_visited_argmin_steps, 100u);
    EXPECT_GT(coverage.dangling_visited_argmin_steps, 100u);
  }
}

TEST(RouteStepperTest, GreedyKernelMatchesOracleStepByStep) {
  CheckKernelAgainstOracle<OracleGreedy, GreedyStepper>();
}

TEST(RouteStepperTest, BacktrackingKernelMatchesOracleStepByStep) {
  CheckKernelAgainstOracle<OracleBacktracking, BacktrackingStepper>();
}

}  // namespace
}  // namespace oscar
