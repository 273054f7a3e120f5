#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"

namespace oscar {
namespace {

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  const Status err = Status::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "boom");
  std::ostringstream os;
  os << err;
  EXPECT_EQ(os.str(), "boom");
}

TEST(ResultTest, ValueAndStatusPaths) {
  Result<int> good = 7;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);

  Result<int> bad = Status::Error("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "nope");
}

TEST(ResultTest, RvalueValueMoves) {
  Result<std::string> r = std::string("payload");
  const std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "payload");
}

TEST(StringUtilTest, StrCatAndFormats) {
  EXPECT_EQ(StrCat("a", 1, "b", 2.0), "a1b2");
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(-0.0, 1), "0.0");
  EXPECT_EQ(FormatPercent(0.853), "85.3%");
  EXPECT_EQ(FormatPercent(0.5, 0), "50%");
}

TEST(StringUtilTest, ParseUintIsStrict) {
  uint64_t v = 7;
  EXPECT_TRUE(ParseUint("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseUint("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  v = 7;
  for (const char* bad : {"", "-1", "+1", " 5", "5 ", "5x", "0x10", "1e3",
                          "18446744073709551616",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(ParseUint(bad, &v)) << "'" << bad << "'";
  }
  EXPECT_EQ(v, 7u);  // Untouched by every rejection.
}

TEST(StringUtilTest, ParseDoubleIsStrictAndFinite) {
  double v = 7.0;
  EXPECT_TRUE(ParseDouble("2.5", &v));
  EXPECT_EQ(v, 2.5);
  EXPECT_TRUE(ParseDouble("-0.125", &v));
  EXPECT_EQ(v, -0.125);
  EXPECT_TRUE(ParseDouble("1e3", &v));
  EXPECT_EQ(v, 1000.0);
  v = 7.0;
  for (const char* bad : {"", " 1", "1 ", "1.5ms", "abc", "nan", "NAN",
                          "-nan", "inf", "-inf", "infinity", "1e999",
                          "-1e999"}) {
    EXPECT_FALSE(ParseDouble(bad, &v)) << "'" << bad << "'";
  }
  EXPECT_EQ(v, 7.0);  // Untouched by every rejection.
}

TEST(StringUtilTest, TakeFlagReadsTheEqualsForm) {
  const std::vector<std::string> args = {"--hop-ms=2.5", "--hop-ms="};
  std::string value;
  size_t i = 0;
  EXPECT_TRUE(TakeFlag(args, &i, "--hop-ms", &value));
  EXPECT_EQ(value, "2.5");
  EXPECT_EQ(i, 0u);  // The value rode in the same argument.
  i = 1;
  EXPECT_TRUE(TakeFlag(args, &i, "--hop-ms", &value));
  EXPECT_EQ(value, "");
  EXPECT_EQ(i, 1u);
}

TEST(StringUtilTest, TakeFlagReadsTheSpaceFormAndAdvancesPastIt) {
  const std::vector<std::string> args = {"--hop-ms", "2.5", "--csv"};
  std::string value;
  size_t i = 0;
  EXPECT_TRUE(TakeFlag(args, &i, "--hop-ms", &value));
  EXPECT_EQ(value, "2.5");
  EXPECT_EQ(i, 1u);  // The caller's ++i lands on "--csv".
  // The next argument is taken verbatim, even when it looks like a flag.
  const std::vector<std::string> dashed = {"--trace-file", "--csv"};
  i = 0;
  EXPECT_TRUE(TakeFlag(dashed, &i, "--trace-file", &value));
  EXPECT_EQ(value, "--csv");
  EXPECT_EQ(i, 1u);
}

TEST(StringUtilTest, TakeFlagAtTheEndReadsAnEmptyValue) {
  const std::vector<std::string> args = {"--csv", "--hop-ms"};
  std::string value = "stale";
  size_t i = 1;
  EXPECT_TRUE(TakeFlag(args, &i, "--hop-ms", &value));
  EXPECT_EQ(value, "");
  EXPECT_EQ(i, 1u);
}

TEST(StringUtilTest, TakeFlagMatchesOnlyItsOwnFlag) {
  const std::vector<std::string> args = {"--hop-msx=1", "--hop-msx", "2",
                                         "--hop", "-hop-ms=1", "hop-ms"};
  std::string value = "untouched";
  for (size_t start = 0; start < args.size(); ++start) {
    size_t i = start;
    EXPECT_FALSE(TakeFlag(args, &i, "--hop-ms", &value)) << args[start];
    EXPECT_EQ(i, start);
  }
  EXPECT_EQ(value, "untouched");
}

TEST(StringUtilTest, SplitCommaListDropsEmptyItems) {
  EXPECT_EQ(SplitCommaList("a,b"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(SplitCommaList(",a,,b,"),
            (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(SplitCommaList("").empty());
  EXPECT_TRUE(SplitCommaList(",,").empty());
}

TEST(StatsTest, RunningStats) {
  RunningStats stats;
  for (double x : {2.0, 4.0, 6.0}) stats.Push(x);
  EXPECT_EQ(stats.Count(), 3u);
  EXPECT_DOUBLE_EQ(stats.Mean(), 4.0);
  EXPECT_DOUBLE_EQ(stats.Min(), 2.0);
  EXPECT_DOUBLE_EQ(stats.Max(), 6.0);
  EXPECT_NEAR(stats.StdDev(), 2.0, 1e-12);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> values = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(values, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 50), 3.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 100), 5.0);
  EXPECT_DOUBLE_EQ(Percentile(values, 75), 4.0);
}

TEST(StatsTest, GiniExtremes) {
  EXPECT_DOUBLE_EQ(Gini({1, 1, 1, 1}), 0.0);
  // All mass on one of n: gini -> (n-1)/n.
  EXPECT_NEAR(Gini({0, 0, 0, 10}), 0.75, 1e-12);
}

TEST(StatsTest, PearsonCorrelation) {
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {2, 4, 6}), 1.0, 1e-12);
  EXPECT_NEAR(PearsonCorrelation({1, 2, 3}, {6, 4, 2}), -1.0, 1e-12);
  EXPECT_DOUBLE_EQ(PearsonCorrelation({1, 1, 1}, {2, 4, 6}), 0.0);
}

TEST(LogHistogramTest, ExactMomentsApproximatePercentiles) {
  LogHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.Record(static_cast<double>(i));
  EXPECT_EQ(hist.Count(), 1000u);
  EXPECT_DOUBLE_EQ(hist.Mean(), 500.5);  // Sum is exact, not bucketed.
  EXPECT_DOUBLE_EQ(hist.Min(), 1.0);
  EXPECT_DOUBLE_EQ(hist.Max(), 1000.0);
  // Buckets are ~2.2% wide; percentiles must land inside one bucket.
  EXPECT_NEAR(hist.Percentile(50), 500.0, 500.0 * 0.03);
  EXPECT_NEAR(hist.Percentile(90), 900.0, 900.0 * 0.03);
  EXPECT_NEAR(hist.Percentile(99), 990.0, 990.0 * 0.03);
  // The extremes are exact: clamped to the recorded min/max.
  EXPECT_DOUBLE_EQ(hist.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(100), 1000.0);
}

TEST(LogHistogramTest, EmptyHistogramIsAllZero) {
  LogHistogram hist;
  EXPECT_EQ(hist.Count(), 0u);
  EXPECT_DOUBLE_EQ(hist.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(50), 0.0);
}

TEST(LogHistogramTest, OutOfRangeValuesClampButCount) {
  LogHistogram hist;
  hist.Record(0.0);                          // Below kMinValue.
  hist.Record(LogHistogram::kMaxValue * 8);  // Above kMaxValue.
  EXPECT_EQ(hist.Count(), 2u);
  EXPECT_DOUBLE_EQ(hist.Min(), 0.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(100), LogHistogram::kMaxValue * 8);
}

TEST(LogHistogramTest, MergeIsOrderIndependentAndLossless) {
  LogHistogram a, b, whole;
  for (int i = 1; i <= 500; ++i) {
    a.Record(static_cast<double>(i));
    whole.Record(static_cast<double>(i));
  }
  for (int i = 501; i <= 1000; ++i) {
    b.Record(static_cast<double>(i));
    whole.Record(static_cast<double>(i));
  }
  LogHistogram ab = a, ba = b;
  ab.Merge(b);
  ba.Merge(a);
  for (LogHistogram* merged : {&ab, &ba}) {
    EXPECT_EQ(merged->Count(), whole.Count());
    EXPECT_DOUBLE_EQ(merged->Mean(), whole.Mean());
    EXPECT_DOUBLE_EQ(merged->Percentile(50), whole.Percentile(50));
    EXPECT_DOUBLE_EQ(merged->Percentile(99), whole.Percentile(99));
    EXPECT_DOUBLE_EQ(merged->Max(), whole.Max());
  }
}

TEST(ThreadPoolTest, ThreadCountFromEnvIsStrictAndClamped) {
  // The suite itself may run under OSCAR_THREADS; restore it after.
  const char* ambient = std::getenv("OSCAR_THREADS");
  const std::string saved = ambient == nullptr ? "" : ambient;
  const auto threads = [](const char* value) {
    setenv("OSCAR_THREADS", value, 1);
    return ThreadCountFromEnv();
  };
  EXPECT_EQ(threads("4"), 4u);
  EXPECT_EQ(threads("256"), 256u);
  for (const char* bad : {"", "0", "257", "-1", " 5", "5x",
                          "18446744073709551616"}) {
    EXPECT_EQ(threads(bad), 1u) << "'" << bad << "'";
  }
  unsetenv("OSCAR_THREADS");
  EXPECT_EQ(ThreadCountFromEnv(), 1u);
  if (ambient != nullptr) setenv("OSCAR_THREADS", saved.c_str(), 1);
}

TEST(ThreadPoolTest, ParallelForWorkersCoversEveryIndexOnce) {
  const size_t count = 10000;
  std::vector<std::atomic<uint32_t>> hits(count);
  std::vector<std::atomic<uint64_t>> per_worker_sum(4);
  PoolGauge gauge;
  ParallelForWorkers(
      4, count,
      [&](uint32_t worker, size_t i) {
        ASSERT_LT(worker, 4u);
        hits[i].fetch_add(1, std::memory_order_relaxed);
        per_worker_sum[worker].fetch_add(i, std::memory_order_relaxed);
      },
      &gauge);
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
  }
  // Worker-sharded accumulators merge to the full reduction: the
  // pattern serve/latency_recorder keys on.
  uint64_t total = 0;
  for (auto& sum : per_worker_sum) total += sum.load();
  EXPECT_EQ(total, static_cast<uint64_t>(count) * (count - 1) / 2);
}

TEST(ThreadPoolTest, PoolGaugeDrainsToZero) {
  PoolGauge gauge;
  ParallelForWorkers(3, 257, [](uint32_t, size_t) {}, &gauge);
  EXPECT_EQ(gauge.total(), 257u);
  EXPECT_EQ(gauge.Dispatched(), 257u);
  EXPECT_EQ(gauge.Completed(), 257u);
  EXPECT_EQ(gauge.InFlight(), 0u);
  EXPECT_EQ(gauge.QueueDepth(), 0u);
}

TEST(ThreadPoolTest, PoolGaugeResetBetweenBatches) {
  PoolGauge gauge;
  ParallelForWorkers(2, 100, [](uint32_t, size_t) {}, &gauge);
  ParallelForWorkers(2, 40, [](uint32_t, size_t) {}, &gauge);
  EXPECT_EQ(gauge.total(), 40u);
  EXPECT_EQ(gauge.Completed(), 40u);
  EXPECT_EQ(gauge.QueueDepth(), 0u);
}

TEST(TablePrinterTest, AlignsColumnsAndPrintsTitle) {
  TablePrinter table("demo");
  table.SetHeader({"name", "value"});
  table.AddRow({"x", "1"});
  table.AddNumericRow("curve", {0.5, 1.25}, 2);
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("0.50"), std::string::npos);
  EXPECT_NE(out.find("1.25"), std::string::npos);
}

}  // namespace
}  // namespace oscar
