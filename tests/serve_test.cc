#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "serve/admission.h"
#include "serve/load_generator.h"
#include "serve/token_bucket.h"
#include "sim/scenario.h"

namespace oscar {
namespace {

// ---- TokenBucket ---------------------------------------------------------

TEST(TokenBucketTest, UnlimitedBucketNeverDelays) {
  TokenBucket bucket(0.0, 64.0);
  EXPECT_TRUE(bucket.unlimited());
  EXPECT_DOUBLE_EQ(bucket.AcquireAt(0.0), 0.0);
  EXPECT_DOUBLE_EQ(bucket.AcquireAt(17.5), 17.5);
}

TEST(TokenBucketTest, DrainedBucketPushesArrivalsToRefill) {
  // 1000/s = 1 token per ms, burst 1: back-to-back demand at t=0 is
  // released at exactly 0, 1, 2, ... ms.
  TokenBucket bucket(1000.0, 1.0);
  EXPECT_FALSE(bucket.unlimited());
  EXPECT_DOUBLE_EQ(bucket.AcquireAt(0.0), 0.0);
  EXPECT_DOUBLE_EQ(bucket.AcquireAt(0.0), 1.0);
  EXPECT_DOUBLE_EQ(bucket.AcquireAt(0.0), 2.0);
}

TEST(TokenBucketTest, BurstPassesThroughIntact) {
  TokenBucket bucket(1000.0, 4.0);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(bucket.AcquireAt(0.0), 0.0) << "burst token " << i;
  }
  EXPECT_GT(bucket.AcquireAt(0.0), 0.0);
}

TEST(TokenBucketTest, AcquireAtRespectsRefill) {
  TokenBucket bucket(1000.0, 1.0);
  EXPECT_DOUBLE_EQ(bucket.AcquireAt(0.0), 0.0);
  // Only half a token banked at 0.5: released once it refills to one.
  EXPECT_DOUBLE_EQ(bucket.AcquireAt(0.5), 1.0);
  // A whole token banked by 2.5 (the bucket caps at burst 1): no wait.
  EXPECT_DOUBLE_EQ(bucket.AcquireAt(2.5), 2.5);
}

TEST(TokenBucketTest, ArrivalsSortedAndRateBounded) {
  const size_t count = 5000;
  const double rate = 8000.0, burst = 64.0;
  const std::vector<double> arrivals =
      GenerateArrivalsMs(count, rate, burst, 42);
  ASSERT_EQ(arrivals.size(), count);
  EXPECT_GE(arrivals.front(), 0.0);
  EXPECT_TRUE(std::is_sorted(arrivals.begin(), arrivals.end()));
  // The bucket caps issuance at burst + rate * t tokens by time t, so
  // the last arrival cannot land earlier than the sustained-rate bound.
  const double rate_per_ms = rate / 1000.0;
  const double min_last_ms =
      (static_cast<double>(count) - burst) / rate_per_ms;
  EXPECT_GE(arrivals.back(), min_last_ms);
}

TEST(TokenBucketTest, ArrivalsDeterministicPerSeed) {
  const std::vector<double> a = GenerateArrivalsMs(1000, 4000.0, 32.0, 7);
  const std::vector<double> b = GenerateArrivalsMs(1000, 4000.0, 32.0, 7);
  const std::vector<double> c = GenerateArrivalsMs(1000, 4000.0, 32.0, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(TokenBucketTest, RateZeroMeansFirehose) {
  const std::vector<double> arrivals = GenerateArrivalsMs(100, 0.0, 64.0, 42);
  ASSERT_EQ(arrivals.size(), 100u);
  for (double t : arrivals) EXPECT_DOUBLE_EQ(t, 0.0);
}

// ---- Admission policies --------------------------------------------------

TEST(AdmissionTest, CatalogBuildsEveryPolicy) {
  AdmissionOptions options;
  for (const std::string& name : AdmissionCatalog()) {
    auto policy = MakeAdmissionPolicy(name, options);
    ASSERT_TRUE(policy.ok()) << name;
    EXPECT_EQ(policy.value()->name(), name);
  }
}

TEST(AdmissionTest, UnknownPolicyNamesCatalog) {
  auto policy = MakeAdmissionPolicy("bogus", AdmissionOptions{});
  ASSERT_FALSE(policy.ok());
  EXPECT_NE(policy.status().message().find("drop-tail"), std::string::npos);
}

TEST(AdmissionTest, NoneAdmitsEverythingForever) {
  auto policy = MakeAdmissionPolicy("none", AdmissionOptions{}).value();
  EXPECT_TRUE(policy->Admit(1u << 20, 1u << 20));
  EXPECT_TRUE(std::isinf(policy->QueueTimeoutMs()));
}

TEST(AdmissionTest, DropTailBoundsTheQueue) {
  AdmissionOptions options;
  options.queue_capacity = 8;
  auto policy = MakeAdmissionPolicy("drop-tail", options).value();
  EXPECT_TRUE(policy->Admit(7, 0));
  EXPECT_FALSE(policy->Admit(8, 0));
  EXPECT_TRUE(std::isinf(policy->QueueTimeoutMs()));
}

TEST(AdmissionTest, TimeoutShedsByDeadlineOnly) {
  AdmissionOptions options;
  options.timeout_ms = 12.5;
  auto policy = MakeAdmissionPolicy("timeout", options).value();
  EXPECT_TRUE(policy->Admit(1u << 20, 1u << 20));
  EXPECT_DOUBLE_EQ(policy->QueueTimeoutMs(), 12.5);
}

TEST(AdmissionTest, PeerCapBoundsPerOwnerInFlight) {
  AdmissionOptions options;
  options.per_peer_cap = 4;
  auto policy = MakeAdmissionPolicy("peer-cap", options).value();
  EXPECT_TRUE(policy->Admit(1u << 20, 3));
  EXPECT_FALSE(policy->Admit(0, 4));
}

// ---- LoadGenerator -------------------------------------------------------

GrownTopology GrowSmall(uint64_t seed) {
  ScenarioOptions base;
  base.network_size = 200;
  base.seed = seed;
  auto grown = GrowScenarioTopology(base);
  EXPECT_TRUE(grown.ok()) << grown.status().message();
  return std::move(grown).value();
}

ServeOptions SmallServeOptions(uint32_t threads) {
  ServeOptions options;
  options.lookups = 2000;
  options.seed = 42;
  options.threads = threads;
  options.offered_rates_per_s = {0.0, 4000.0};
  options.policies = {"none", "drop-tail", "timeout", "peer-cap"};
  options.concurrency = 16;
  options.admission.queue_capacity = 64;
  options.admission.timeout_ms = 25.0;
  options.admission.per_peer_cap = 8;
  return options;
}

void ExpectCellInvariants(const ServeCellReport& cell) {
  EXPECT_EQ(cell.submitted, cell.admitted + cell.dropped) << cell.policy;
  EXPECT_EQ(cell.admitted, cell.completed + cell.shed) << cell.policy;
  EXPECT_LE(cell.succeeded, cell.completed) << cell.policy;
  EXPECT_EQ(cell.latency.count, cell.completed) << cell.policy;
}

TEST(LoadGeneratorTest, SweepInvariantsAndNoneLosesNothing) {
  const GrownTopology grown = GrowSmall(42);
  LoadGenerator generator(grown.snapshot, SmallServeOptions(1));
  auto report = generator.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  const ServeReport& r = report.value();

  EXPECT_EQ(r.routed, 2000u);
  EXPECT_GT(r.route_success_rate, 0.9);
  EXPECT_GT(r.mean_messages, 0.0);
  ASSERT_EQ(r.cells.size(), 8u);  // 2 rates x 4 policies.
  EXPECT_EQ(r.total_submitted, 8u * 2000u);

  for (const ServeCellReport& cell : r.cells) {
    ExpectCellInvariants(cell);
    EXPECT_EQ(cell.submitted, 2000u);
    if (cell.policy == "none") {
      EXPECT_EQ(cell.dropped, 0u);
      EXPECT_EQ(cell.shed, 0u);
      EXPECT_EQ(cell.completed, 2000u);
    }
  }

  // The t=0 firehose against a bounded queue must actually drop, and
  // deadline shedding must actually shed — otherwise the sweep is not
  // exercising the policies at all.
  const ServeCellReport& firehose_drop_tail = r.cells[1];
  EXPECT_EQ(firehose_drop_tail.policy, "drop-tail");
  EXPECT_DOUBLE_EQ(firehose_drop_tail.offered_per_s, 0.0);
  EXPECT_GT(firehose_drop_tail.dropped, 0u);
  const ServeCellReport& firehose_timeout = r.cells[2];
  EXPECT_EQ(firehose_timeout.policy, "timeout");
  EXPECT_GT(firehose_timeout.shed, 0u);
}

TEST(LoadGeneratorTest, ReportIdenticalAcrossThreadCounts) {
  const GrownTopology grown = GrowSmall(42);
  auto one = LoadGenerator(grown.snapshot, SmallServeOptions(1)).Run();
  auto four = LoadGenerator(grown.snapshot, SmallServeOptions(4)).Run();
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  const ServeReport& a = one.value();
  const ServeReport& b = four.value();

  EXPECT_EQ(a.routed, b.routed);
  EXPECT_DOUBLE_EQ(a.route_success_rate, b.route_success_rate);
  EXPECT_DOUBLE_EQ(a.mean_messages, b.mean_messages);
  EXPECT_DOUBLE_EQ(a.service.mean_ms, b.service.mean_ms);
  EXPECT_DOUBLE_EQ(a.service.p50_ms, b.service.p50_ms);
  EXPECT_DOUBLE_EQ(a.service.p999_ms, b.service.p999_ms);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (size_t i = 0; i < a.cells.size(); ++i) {
    const ServeCellReport& x = a.cells[i];
    const ServeCellReport& y = b.cells[i];
    EXPECT_EQ(x.policy, y.policy);
    EXPECT_EQ(x.admitted, y.admitted);
    EXPECT_EQ(x.dropped, y.dropped);
    EXPECT_EQ(x.shed, y.shed);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.succeeded, y.succeeded);
    EXPECT_DOUBLE_EQ(x.achieved_per_s, y.achieved_per_s);
    EXPECT_DOUBLE_EQ(x.queue_peak, y.queue_peak);
    EXPECT_DOUBLE_EQ(x.latency.p50_ms, y.latency.p50_ms);
    EXPECT_DOUBLE_EQ(x.latency.p99_ms, y.latency.p99_ms);
    EXPECT_DOUBLE_EQ(x.latency.p999_ms, y.latency.p999_ms);
    EXPECT_DOUBLE_EQ(x.latency.mean_ms, y.latency.mean_ms);
  }
}

TEST(LoadGeneratorTest, HotKeySkewConcentratesPeerCapDrops) {
  const GrownTopology grown = GrowSmall(42);
  ServeOptions options = SmallServeOptions(2);
  options.hot_keys = 4;
  options.offered_rates_per_s = {0.0};
  options.policies = {"none", "peer-cap"};
  auto report = LoadGenerator(grown.snapshot, options).Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  const ServeReport& r = report.value();
  ASSERT_EQ(r.cells.size(), 2u);
  for (const ServeCellReport& cell : r.cells) ExpectCellInvariants(cell);
  // 2000 lookups over 4 Zipf-hot owners at cap 8: the per-peer cap
  // must bite hard.
  EXPECT_GT(r.cells[1].dropped, r.cells[1].submitted / 2);
}

TEST(LoadGeneratorTest, RejectsEmptySweepAxes) {
  const GrownTopology grown = GrowSmall(42);
  ServeOptions no_rates = SmallServeOptions(1);
  no_rates.offered_rates_per_s.clear();
  EXPECT_FALSE(LoadGenerator(grown.snapshot, no_rates).Run().ok());

  ServeOptions no_policies = SmallServeOptions(1);
  no_policies.policies.clear();
  EXPECT_FALSE(LoadGenerator(grown.snapshot, no_policies).Run().ok());

  ServeOptions bad_policy = SmallServeOptions(1);
  bad_policy.policies = {"none", "bogus"};
  EXPECT_FALSE(LoadGenerator(grown.snapshot, bad_policy).Run().ok());
}

}  // namespace
}  // namespace oscar
