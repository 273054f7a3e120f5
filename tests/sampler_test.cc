#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "churn/churn.h"
#include "core/network_view.h"
#include "core/topology_snapshot.h"
#include "overlay/kleinberg/kleinberg_overlay.h"
#include "routing/router.h"
#include "sampling/oracle_sampler.h"
#include "sampling/random_walk_sampler.h"
#include "sampling/size_estimator.h"

namespace oscar {
namespace {

Network LinkedNetwork(size_t n, uint64_t seed,
                      DegreeCaps caps = DegreeCaps{8, 8}) {
  Network net;
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    net.Join(KeyId::FromUnit(rng.NextDouble()), caps);
  }
  KleinbergOverlay overlay;
  for (PeerId id : net.AlivePeers()) {
    EXPECT_TRUE(overlay.BuildLinks(&net, id, &rng).ok());
  }
  return net;
}

TEST(OracleSamplerTest, SamplesInsideSegment) {
  Network net = LinkedNetwork(200, 1);
  OracleSegmentSampler sampler;
  Rng rng(2);
  const KeyId from = KeyId::FromUnit(0.2), to = KeyId::FromUnit(0.6);
  for (int i = 0; i < 100; ++i) {
    auto sample = sampler.SampleInSegment(net, 0, from, to, &rng);
    ASSERT_TRUE(sample.ok());
    EXPECT_TRUE(
        InClockwiseSegment(net.key(sample.value().peer), from, to));
  }
}

TEST(OracleSamplerTest, EmptySegmentFails) {
  Network net = LinkedNetwork(10, 3);
  OracleSegmentSampler sampler;
  Rng rng(4);
  const KeyId point = KeyId::FromUnit(0.5);
  EXPECT_FALSE(sampler.SampleInSegment(net, 0, point, point, &rng).ok());
}

TEST(RandomWalkSamplerTest, SamplesInsideSegmentIncludingSeam) {
  Network net = LinkedNetwork(300, 5);
  RandomWalkSegmentSampler sampler;
  Rng rng(6);
  const PeerId origin = net.AlivePeers().front();
  // A seam-wrapping segment.
  const KeyId from = KeyId::FromUnit(0.9), to = KeyId::FromUnit(0.2);
  for (int i = 0; i < 50; ++i) {
    auto sample = sampler.SampleInSegment(net, origin, from, to, &rng);
    ASSERT_TRUE(sample.ok());
    EXPECT_TRUE(
        InClockwiseSegment(net.key(sample.value().peer), from, to));
    EXPECT_GT(sample.value().steps, 0u);
  }
}

TEST(RandomWalkSamplerTest, TinySegmentFallsBackToRouting) {
  Network net = LinkedNetwork(300, 7);
  RandomWalkSegmentSampler sampler;
  Rng rng(8);
  const PeerId origin = net.AlivePeers().front();
  // Segment holding exactly one peer: the successor region of some peer.
  const Ring& ring = net.ring();
  const KeyId from = KeyId::FromRaw(ring.at(42).key_raw);
  const KeyId to = KeyId::FromRaw(ring.at(43).key_raw);
  ASSERT_EQ(ring.CountInSegment(from, to), 1u);
  auto sample = sampler.SampleInSegment(net, origin, from, to, &rng);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample.value().peer, ring.at(42).id);
}

// The walk's constants, as random_walk_sampler.cc defines them.
constexpr uint32_t kRefBurnIn = 12;
constexpr uint32_t kRefTestStride = 6;
constexpr uint32_t kRefMaxWalkSteps = 72;
constexpr double kRefMhFloor = 0.3;
constexpr uint32_t kRefSuccessorListCutoff = 48;
constexpr uint32_t kRefFallbackSpread = 8;

// Reference for NeighborRow::CountAlive/KthAlive: the alive entries of
// `id`'s walk row, found by probing every entry's liveness.
template <typename Topo>
std::vector<PeerId> ScannedAliveRow(const Topo& topo, PeerId id) {
  std::vector<PeerId> alive;
  NeighborRowOf(topo, id, topo.ring().PosOf(id), /*with_in_links=*/true)
      .ForEach([&](PeerId n) {
        if (topo.alive(n)) alive.push_back(n);
      });
  return alive;
}

// Where a reference walk went: the visited positions, whether it
// stopped inside the segment, and its proposal count, split by whether
// the row the proposal was picked from has a dangling out-link.
struct ReferenceWalkResult {
  std::vector<PeerId> visits;
  bool found = false;
  uint64_t steps = 0;
  uint64_t dangling_row_steps = 0;
};

// The Metropolis-Hastings walk written over scanned rows, drawing from
// `rng` exactly as the sampler does.
template <typename Topo>
ReferenceWalkResult ReferenceWalk(const Topo& topo, PeerId origin,
                                  KeyId from, KeyId to, Rng* rng) {
  ReferenceWalkResult walk;
  walk.visits = {origin};
  PeerId current = origin;
  std::vector<PeerId> row = ScannedAliveRow(topo, current);
  for (uint32_t step = 0; step < kRefBurnIn + kRefMaxWalkSteps; ++step) {
    if (step >= kRefBurnIn && (step - kRefBurnIn) % kRefTestStride == 0 &&
        InClockwiseSegment(topo.key(current), from, to)) {
      walk.found = true;
      break;
    }
    if (row.empty()) break;
    const PeerId proposal = row[rng->UniformInt(row.size())];
    ++walk.steps;
    walk.dangling_row_steps += topo.dangling_out(current) > 0 ? 1 : 0;
    std::vector<PeerId> proposal_row = ScannedAliveRow(topo, proposal);
    if (proposal_row.empty()) continue;
    const double accept =
        std::max(kRefMhFloor, static_cast<double>(row.size()) /
                                  static_cast<double>(proposal_row.size()));
    if (rng->NextDouble() < accept) {
      current = proposal;
      row = std::move(proposal_row);
      walk.visits.push_back(current);
    }
  }
  return walk;
}

// The whole sample the sampler draws for a segment it walks: the
// reference walk, then, when the walk spends its budget, a route from a
// fresh stepper to a random key of the segment and a spread over up to
// kRefFallbackSpread - 1 clockwise successors inside it.
template <typename Topo>
Result<SegmentSample> ReferenceSample(const Topo& topo, PeerId origin,
                                      KeyId from, KeyId to, Rng* rng,
                                      ReferenceWalkResult* walk) {
  *walk = ReferenceWalk(topo, origin, from, to, rng);
  if (walk->found) return SegmentSample{walk->visits.back(), walk->steps};
  const double span = static_cast<double>(ClockwiseDistance(from, to)) /
                      18446744073709551616.0;
  const KeyId probe =
      KeyId::FromRaw(from.raw + KeyId::FromUnit(rng->NextDouble() * span).raw);
  const RouteResult route =
      Route(Routing::kGreedy, topo, walk->visits.back(), probe);
  uint64_t steps = walk->steps + route.hops + route.wasted;
  PeerId landed = route.terminal;
  const NetworkView view(topo);
  if (!InClockwiseSegment(topo.key(landed), from, to)) {
    const auto first = view.ring().SuccessorOfKey(from);
    if (!first.has_value() || !InClockwiseSegment(topo.key(*first), from, to)) {
      return Status::Error("reference: segment unreachable");
    }
    landed = *first;
    ++steps;
  }
  for (uint64_t hops = rng->UniformInt(kRefFallbackSpread); hops > 0; --hops) {
    const auto next = view.SuccessorOf(landed);
    if (!next.has_value() || !InClockwiseSegment(topo.key(*next), from, to)) {
      break;
    }
    landed = *next;
    ++steps;
  }
  return SegmentSample{landed, steps};
}

// Holds the O(1) row reads and the sampler's walk to the scanning
// reference over one backend.
template <typename Topo>
void ExpectWalkMatchesReference(const Topo& topo, uint64_t seed) {
  for (PeerId id = 0; id < topo.size(); ++id) {
    const NeighborRow row =
        NeighborRowOf(topo, id, topo.ring().PosOf(id), /*with_in_links=*/true);
    const std::vector<PeerId> alive = ScannedAliveRow(topo, id);
    ASSERT_EQ(row.CountAlive(), alive.size()) << "peer " << id;
    for (size_t k = 0; k < alive.size(); ++k) {
      ASSERT_EQ(row.KthAlive(topo, k), alive[k])
          << "peer " << id << ", k " << k;
    }
  }
  const std::vector<PeerId> peers = NetworkView(topo).AlivePeers();
  Rng draw(seed);
  for (int walk = 0; walk < 40; ++walk) {
    const PeerId origin = peers[draw.UniformInt(peers.size())];
    const double start = draw.NextDouble();
    const KeyId from = KeyId::FromUnit(start);
    const KeyId to = KeyId::FromUnit(start + 0.4 - (start > 0.6 ? 1.0 : 0.0));
    // Smaller segments are served from the successor list, not walked.
    ASSERT_GT(topo.ring().CountInSegment(from, to), kRefSuccessorListCutoff);
    std::vector<PeerId> visits;
    RandomWalkOptions options;
    options.visit_trace = &visits;
    Rng walk_rng(seed * 1000 + static_cast<uint64_t>(walk));
    Rng reference_rng = walk_rng;
    ASSERT_TRUE(RandomWalkSegmentSampler(options)
                    .SampleInSegment(topo, origin, from, to, &walk_rng)
                    .ok());
    ASSERT_EQ(visits,
              ReferenceWalk(topo, origin, from, to, &reference_rng).visits)
        << "walk " << walk;
  }
}

TEST(RandomWalkSamplerTest, O1RowReadsAndWalksMatchScanningReference) {
  for (const double crash : {0.0, 0.15, 0.4}) {
    SCOPED_TRACE(testing::Message() << "crash level " << crash);
    Network net = LinkedNetwork(400, 13);
    Rng crash_rng(14);
    ASSERT_TRUE(CrashFraction(&net, crash, &crash_rng).ok());
    // Crashes leave rows with and without dead out-links side by side.
    size_t dangling_rows = 0;
    for (PeerId id : net.AlivePeers()) {
      dangling_rows += net.dangling_out(id) > 0 ? 1 : 0;
    }
    if (crash > 0.0) {
      EXPECT_GT(dangling_rows, 0u);
      EXPECT_LT(dangling_rows, net.alive_count());
    } else {
      EXPECT_EQ(dangling_rows, 0u);
    }
    ExpectWalkMatchesReference(net, 15);
    if (testing::Test::HasFatalFailure()) return;
    ExpectWalkMatchesReference(TopologySnapshot(net), 16);
    if (testing::Test::HasFatalFailure()) return;
  }
}

// What the whole-sample comparison exercised.
struct SampleCoverage {
  uint64_t samples = 0;
  uint64_t fallbacks = 0;
  uint64_t dangling_row_steps = 0;
  uint64_t clean_row_steps = 0;
};

// Draws `samples` whole samples from the sampler, alternating between
// `large` and `small` on this thread, so the sampler's per-thread
// fallback stepper carries state from one topology's routes into the
// other's. Each segment holds 49 to 400 peers, and at most a quarter of
// the ring: walked, not served from the successor list, and narrow
// enough that many walks spend their budget and fall back.
// Every sample (peer and steps), visited sequence and rng draw must
// match ReferenceSample's.
template <typename Topo>
void ExpectSamplesMatchReference(const Topo& large, const Topo& small,
                                 int samples, uint64_t seed,
                                 SampleCoverage* coverage) {
  Rng draw(seed);
  for (int i = 0; i < samples; ++i) {
    const Topo& topo = i % 2 == 0 ? large : small;
    const Ring& ring = topo.ring();
    const size_t n = ring.size();
    ASSERT_GT(n / 4, size_t{kRefSuccessorListCutoff});
    const size_t lo = kRefSuccessorListCutoff + 1;
    const size_t hi = std::min<size_t>(400, n / 4);
    const size_t width = lo + draw.UniformInt(hi - lo + 1);
    const size_t start = draw.UniformInt(n);
    const KeyId from = KeyId::FromRaw(ring.at(start).key_raw);
    const KeyId to = KeyId::FromRaw(ring.at((start + width) % n).key_raw);
    ASSERT_EQ(ring.CountInSegment(from, to), width);
    const PeerId origin = ring.at(draw.UniformInt(n)).id;
    std::vector<PeerId> visits;
    RandomWalkOptions options;
    options.visit_trace = &visits;
    Rng sample_rng(seed * 100000 + static_cast<uint64_t>(i));
    Rng reference_rng = sample_rng;
    const Result<SegmentSample> sample =
        RandomWalkSegmentSampler(options).SampleInSegment(topo, origin, from,
                                                          to, &sample_rng);
    ReferenceWalkResult walk;
    const Result<SegmentSample> expected =
        ReferenceSample(topo, origin, from, to, &reference_rng, &walk);
    ASSERT_EQ(sample.ok(), expected.ok()) << "sample " << i;
    ASSERT_TRUE(sample.ok()) << "sample " << i;
    ASSERT_EQ(visits, walk.visits) << "sample " << i;
    ASSERT_EQ(sample.value().peer, expected.value().peer) << "sample " << i;
    ASSERT_EQ(sample.value().steps, expected.value().steps)
        << "sample " << i;
    ASSERT_EQ(sample_rng.Next(), reference_rng.Next()) << "sample " << i;
    ++coverage->samples;
    coverage->fallbacks += walk.found ? 0 : 1;
    coverage->dangling_row_steps += walk.dangling_row_steps;
    coverage->clean_row_steps += walk.steps - walk.dangling_row_steps;
  }
}

TEST(RandomWalkSamplerTest, WholeSamplesMatchReferenceIncludingFallback) {
  SampleCoverage coverage;
  for (const double crash : {0.0, 0.15, 0.4}) {
    SCOPED_TRACE(testing::Message() << "crash level " << crash);
    // Different degree caps give the two topologies rows of different
    // lengths as well as different sizes.
    Network large = LinkedNetwork(3000, 21, DegreeCaps{27, 27});
    Network small = LinkedNetwork(400, 22);
    Rng crash_rng(23);
    ASSERT_TRUE(CrashFraction(&large, crash, &crash_rng).ok());
    ASSERT_TRUE(CrashFraction(&small, crash, &crash_rng).ok());
    ExpectSamplesMatchReference(large, small, 1000, 24, &coverage);
    if (testing::Test::HasFatalFailure()) return;
    ExpectSamplesMatchReference(TopologySnapshot(large),
                                TopologySnapshot(small), 1000, 25, &coverage);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(coverage.samples, 6000u);
  EXPECT_GT(coverage.fallbacks, 1000u);
  EXPECT_GT(coverage.dangling_row_steps, 1000u);
  EXPECT_GT(coverage.clean_row_steps, 1000u);
}

TEST(SizeEstimatorTest, OracleIsExact) {
  Network net = LinkedNetwork(128, 9);
  Rng rng(10);
  OracleSizeEstimator oracle;
  EXPECT_DOUBLE_EQ(oracle.Estimate(net, 0, &rng), 128.0);
}

TEST(SizeEstimatorTest, GapEstimatorIsRightOrderOfMagnitudeOnUniform) {
  Network net = LinkedNetwork(1000, 11);
  Rng rng(12);
  GapSizeEstimator gap(16);
  // Average over peers: individually noisy, collectively near N.
  double sum = 0.0;
  const std::vector<PeerId> peers = net.AlivePeers();
  for (size_t i = 0; i < peers.size(); i += 10) {
    sum += gap.Estimate(net, peers[i], &rng);
  }
  const double mean = sum / (static_cast<double>(peers.size()) / 10.0);
  EXPECT_GT(mean, 250.0);
  EXPECT_LT(mean, 4000.0);
}

TEST(SizeEstimatorTest, NamesIdentifyVariants) {
  EXPECT_EQ(OracleSizeEstimator().name(), "oracle");
  EXPECT_EQ(GapSizeEstimator(8).name(), "gap(w=8)");
}

}  // namespace
}  // namespace oscar
