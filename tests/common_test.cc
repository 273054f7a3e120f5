#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/rng.h"

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

// ---------------------------------------------------- flag reader fuzz

/// The reference for ParseUint: a non-empty all-digit string whose value
/// fits uint64_t, compared as text after dropping leading zeros.
bool IsUint64DigitString(const std::string& text) {
  if (text.empty()) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  const size_t first = text.find_first_not_of('0');
  if (first == std::string::npos) return true;  // All zeros.
  const std::string digits = text.substr(first);
  const std::string max = std::to_string(UINT64_MAX);
  return digits.size() < max.size() ||
         (digits.size() == max.size() && digits <= max);
}

/// A random string over `alphabet` plus the odd arbitrary byte (NUL
/// included), 0..max_len long.
std::string RandomText(Rng* rng, const std::string& alphabet,
                       size_t max_len) {
  std::string out(rng->UniformInt(max_len + 1), '\0');
  for (char& c : out) {
    c = rng->UniformInt(16) == 0
            ? static_cast<char>(rng->UniformInt(256))
            : alphabet[rng->UniformInt(alphabet.size())];
  }
  return out;
}

TEST(StringUtilTest, ParseUintFuzzAcceptsExactlyFittingDigitStrings) {
  const std::string max = std::to_string(UINT64_MAX);
  const std::vector<std::string> near_max = {
      max, "18446744073709551616", "0" + max, "99999999999999999999",
      "18446744073709551605", "10000000000000000000"};
  size_t accepted = 0;
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Rng rng(seed);
    for (int iteration = 0; iteration < 1000; ++iteration) {
      std::string text;
      switch (rng.UniformInt(3)) {
        case 0:
          text = RandomText(&rng, "0123456789", 22);
          break;
        case 1:
          text = RandomText(&rng, "0123456789+- xe.", 8);
          break;
        default:  // A value near UINT64_MAX with one digit changed.
          text = near_max[rng.UniformInt(near_max.size())];
          text[rng.UniformInt(text.size())] =
              static_cast<char>('0' + rng.UniformInt(10));
          break;
      }
      uint64_t value = 7;
      const bool ok = ParseUint(text, &value);
      ASSERT_EQ(ok, IsUint64DigitString(text)) << "'" << text << "'";
      if (!ok) {
        ASSERT_EQ(value, 7u) << "'" << text << "'";  // Untouched.
        continue;
      }
      ++accepted;
      const size_t first = text.find_first_not_of('0');
      ASSERT_EQ(std::to_string(value),
                first == std::string::npos ? "0" : text.substr(first));
      // And the other way round, for a value of random bit length.
      const uint64_t x = rng.Next() >> rng.UniformInt(64);
      ASSERT_TRUE(ParseUint(std::to_string(x), &value));
      ASSERT_EQ(value, x);
    }
  }
  EXPECT_GT(accepted, 100u);
}

TEST(StringUtilTest, ParseDoubleFuzzAcceptsOnlyFiniteValues) {
  size_t accepted = 0;
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Rng rng(seed);
    for (int iteration = 0; iteration < 1000; ++iteration) {
      std::string text;
      if (rng.UniformInt(4) == 0) {
        text = RandomText(&rng, "0123456789", 400);  // Overflow lengths.
      } else {
        // Words strtod knows, glued together: "-inf", "0x1p3", "1e309".
        static const char* const kWords[] = {
            "nan", "inf", "infinity", "-", "+", "0x", "1", "9", ".",
            "e", "p", " ", "1e309", "1e-320", "0"};
        const uint64_t words = 1 + rng.UniformInt(4);
        for (uint64_t w = 0; w < words; ++w) {
          text += kWords[rng.UniformInt(std::size(kWords))];
        }
        if (rng.UniformInt(8) == 0) {
          text += static_cast<char>(rng.UniformInt(256));  // NUL too.
        }
      }
      double value = 7.0;
      if (!ParseDouble(text, &value)) {
        ASSERT_EQ(value, 7.0) << "'" << text << "'";  // Untouched.
        continue;
      }
      ++accepted;
      ASSERT_TRUE(std::isfinite(value)) << "'" << text << "'";
      ASSERT_EQ(text.find('\0'), std::string::npos) << "'" << text << "'";
    }
  }
  EXPECT_GT(accepted, 100u);
}

TEST(StringUtilTest, TakeFlagFuzzStaysInBoundsAndAdvancesAtMostOne) {
  const std::vector<std::string> words = {
      "--f", "--f=", "--f=v", "--f==", "--fx", "--fx=v", "-f", "f", "",
      "v", "--f=--f", "--g", "--g=v"};
  size_t taken = 0;
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Rng rng(seed);
    for (int iteration = 0; iteration < 1000; ++iteration) {
      std::vector<std::string> drawn(1 + rng.UniformInt(5));
      for (std::string& word : drawn) {
        word = words[rng.UniformInt(words.size())];
      }
      // Built from a range, the vector's capacity is its size, so a
      // read past end() leaves the allocation (ASan reports it).
      const std::vector<std::string> args(drawn.begin(), drawn.end());
      const size_t start = rng.UniformInt(args.size());
      size_t i = start;
      std::string value = "untouched";
      if (!TakeFlag(args, &i, "--f", &value)) {
        ASSERT_EQ(i, start);
        ASSERT_EQ(value, "untouched");
        continue;
      }
      ++taken;
      ASSERT_TRUE(i == start || i == start + 1);
      ASSERT_LT(i, args.size());
      const std::string& arg = args[start];
      if (arg == "--f") {
        ASSERT_EQ(value, i > start ? args[i] : std::string());
        ASSERT_EQ(i > start, start + 1 < args.size());
      } else {
        ASSERT_EQ(arg.rfind("--f=", 0), 0u);
        ASSERT_EQ(i, start);
        ASSERT_EQ(value, arg.substr(4));
      }
    }
  }
  EXPECT_GT(taken, 100u);
}

// ------------------------------------------------------ flag registry

/// One flag of every rule, as the command-line tools declare them.
struct Registry {
  bool on = false;
  size_t count = 7;
  double rate = 1.0;
  double cadence = 1.0;
  std::vector<std::string> items;
  std::vector<std::string> names;
  std::string path;
  std::vector<std::string> words;
  FlagSet flags{"tool"};

  explicit Registry(bool positional = true) {
    flags.Switch("--on", &on);
    flags.Uint("--count", "N", 2, &count, 9);
    flags.Double("--rate", "R", FlagSet::Sign::kPositive, &rate);
    flags.Double("--cadence", "MS", FlagSet::Sign::kNonNegative, &cadence);
    flags.List("--items", "a,b", FlagSet::Repeat::kReplace, &items);
    flags.List("--names", "a,b", FlagSet::Repeat::kAccumulate, &names);
    flags.Path("--out", "F", &path);
    flags.Custom("--even", "N", [this](const std::string& value) {
      uint64_t parsed = 0;
      if (!ParseUint(value, &parsed) || parsed % 2 != 0) {
        return Status::Error("--even wants an even number");
      }
      count = static_cast<size_t>(parsed);
      return Status::Ok();
    });
    if (positional) flags.Positional("[word ...]", &words);
  }

  Status Parse(const std::vector<std::string>& args) {
    return flags.Parse(args);
  }
};

TEST(FlagSetTest, ValueFlagsTakeBothForms) {
  Registry r;
  ASSERT_TRUE(r.Parse({"--count=3", "--rate", "2.5", "--on"}).ok());
  EXPECT_EQ(r.count, 3u);
  EXPECT_DOUBLE_EQ(r.rate, 2.5);
  EXPECT_TRUE(r.on);
  Registry s;
  ASSERT_TRUE(s.Parse({"--count", "4", "--rate=0.5"}).ok());
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.rate, 0.5);
  EXPECT_FALSE(s.on);
  // A switch takes no value.
  EXPECT_FALSE(Registry().Parse({"--on=1"}).ok());
}

TEST(FlagSetTest, UintHonorsBothBounds) {
  for (const char* ok : {"2", "9", "002"}) {
    EXPECT_TRUE(Registry().Parse({"--count", ok}).ok()) << ok;
  }
  for (const char* bad : {"1", "10", "0", "-2", "", "3x"}) {
    const Status status = Registry().Parse({"--count", bad});
    EXPECT_FALSE(status.ok()) << bad;
    EXPECT_NE(status.message().find("--count wants 2..9"), std::string::npos)
        << status.message();
  }
  // An open upper bound still rejects what overflows uint64_t.
  size_t n = 0;
  FlagSet open("tool");
  open.Uint("--n", "N", 1, &n);
  EXPECT_FALSE(open.Parse({"--n=0"}).ok());
  EXPECT_FALSE(open.Parse({"--n=99999999999999999999999"}).ok());
  ASSERT_TRUE(open.Parse({"--n=18446744073709551615"}).ok());
  EXPECT_EQ(n, SIZE_MAX);
}

TEST(FlagSetTest, DoubleHonorsItsSign) {
  EXPECT_FALSE(Registry().Parse({"--rate=0"}).ok());
  EXPECT_FALSE(Registry().Parse({"--rate=-0"}).ok());
  EXPECT_TRUE(Registry().Parse({"--rate=1e-300"}).ok());
  EXPECT_TRUE(Registry().Parse({"--cadence=0"}).ok());
  EXPECT_FALSE(Registry().Parse({"--cadence=-1e-300"}).ok());
  EXPECT_FALSE(Registry().Parse({"--cadence", "-5"}).ok());
}

TEST(FlagSetTest, NonFiniteAndSpaceLedNumbersAreRejected) {
  for (const char* bad : {"nan", "inf", "-inf", "1e999", " 5", "5 ", "\t5"}) {
    EXPECT_FALSE(Registry().Parse({"--rate", bad}).ok()) << bad;
    EXPECT_FALSE(Registry().Parse({"--cadence", bad}).ok()) << bad;
    EXPECT_FALSE(Registry().Parse({"--count", bad}).ok()) << bad;
  }
  const Status status = Registry().Parse({"--rate=nan"});
  EXPECT_EQ(status.message(), "--rate wants a positive number, got 'nan'");
}

TEST(FlagSetTest, ListsRejectEmptyAndCommaOnlyValues) {
  for (const char* bad : {"--items=", "--items=,,", "--names=,"}) {
    const Status status = Registry().Parse({bad});
    EXPECT_FALSE(status.ok()) << bad;
    EXPECT_NE(status.message().find("got an empty list"), std::string::npos);
  }
  EXPECT_FALSE(Registry().Parse({"--names"}).ok());  // Nothing follows.
  Registry r;
  ASSERT_TRUE(r.Parse({"--items=a,,b", "--items", "c", "--names=x",
                       "--names", "y,z"})
                  .ok());
  EXPECT_EQ(r.items, (std::vector<std::string>{"c"}));  // Replaced.
  EXPECT_EQ(r.names, (std::vector<std::string>{"x", "y", "z"}));
}

TEST(FlagSetTest, PathIsNonEmptyAndGivenOnce) {
  Registry r;
  ASSERT_TRUE(r.Parse({"--out", "a.otrace"}).ok());
  EXPECT_EQ(r.path, "a.otrace");
  EXPECT_EQ(Registry().Parse({"--out=a", "--out=b"}).message(),
            "duplicate --out");
  EXPECT_EQ(Registry().Parse({"--out=a", "--out=a"}).message(),
            "duplicate --out");
  EXPECT_EQ(Registry().Parse({"--out="}).message(), "--out requires a path");
  EXPECT_EQ(Registry().Parse({"--out"}).message(), "--out requires a path");
}

TEST(FlagSetTest, CustomRulesReturnTheirOwnDiagnostic) {
  Registry r;
  ASSERT_TRUE(r.Parse({"--even=4"}).ok());
  EXPECT_EQ(r.count, 4u);
  EXPECT_EQ(Registry().Parse({"--even", "3"}).message(),
            "--even wants an even number");
}

TEST(FlagSetTest, UnknownFlagsAndUnexpectedPositionalsAreRejected) {
  EXPECT_EQ(Registry().Parse({"--frobnicate"}).message(),
            "unknown flag: '--frobnicate'");
  EXPECT_EQ(Registry().Parse({"-x"}).message(), "unknown flag: '-x'");
  EXPECT_EQ(Registry().Parse({"-"}).message(), "unknown flag: '-'");
  // A flag name is matched whole: a longer word is another flag.
  EXPECT_FALSE(Registry().Parse({"--counts=3"}).ok());
  EXPECT_FALSE(Registry().Parse({"--on2"}).ok());
  Registry closed(/*positional=*/false);
  EXPECT_EQ(closed.Parse({"word"}).message(), "unexpected argument: 'word'");
}

TEST(FlagSetTest, PositionalsKeepTheirOrderAmongFlags) {
  Registry r;
  ASSERT_TRUE(r.Parse({"a", "--count", "5", "b", "", "--on", "c"}).ok());
  EXPECT_EQ(r.words, (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(r.count, 5u);
}

TEST(FlagSetTest, HelpStopsParsing) {
  Registry r;
  ASSERT_TRUE(r.Parse({"--on", "--help", "--count=0", "--frobnicate"}).ok());
  EXPECT_TRUE(r.flags.help());
  EXPECT_TRUE(r.on);
  EXPECT_EQ(r.count, 7u);
  Registry s;
  ASSERT_TRUE(s.Parse({"-h"}).ok());
  EXPECT_TRUE(s.flags.help());
  // A violation before the help flag still wins.
  Registry t;
  EXPECT_FALSE(t.Parse({"--count=0", "--help"}).ok());
  EXPECT_FALSE(t.flags.help());
}

TEST(FlagSetTest, UsageNamesEveryFlag) {
  Registry r;
  r.flags.Note("catalog: x y");
  const std::string usage = r.flags.Usage();
  EXPECT_EQ(usage.rfind("usage: tool ", 0), 0u) << usage;
  for (const char* item :
       {"--on\n", "--count=N\n", "--rate=R\n", "--cadence=MS\n",
        "--items=a,b\n", "--names=a,b\n", "--out=F\n", "--even=N\n",
        "--help\n", "[word ...]", "catalog: x y\n"}) {
    EXPECT_NE(usage.find(item), std::string::npos) << item << "\n" << usage;
  }
}

TEST(FlagSetTest, FuzzStaysInBoundsAndRejectsEveryBadNumber) {
  // Values ParseUint and ParseDouble take, refuse, or take out of bounds.
  const std::vector<std::string> values = {
      "5", "0", "2", "9", "10", "-1", " 5", "5x", "nan", "inf", "1e999",
      "", "0.5", "-0", "99999999999999999999999", "1e-300", "a,b", ",",
      "--count", "--on", "word"};
  const std::vector<std::string> flags = {"--count", "--rate", "--cadence",
                                          "--items", "--names", "--out"};
  size_t accepted = 0;
  size_t rejected = 0;
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Rng rng(seed);
    for (int iteration = 0; iteration < 2000; ++iteration) {
      // Each item is a flag with its value in one of the two forms, a
      // switch or a positional word; `valid` tracks whether every number
      // and path the items carry passes its rule.
      std::vector<std::string> drawn;
      bool valid = true;
      bool path_seen = false;
      const size_t items = 1 + rng.UniformInt(4);
      for (size_t item = 0; item < items; ++item) {
        const uint64_t kind = rng.UniformInt(8);
        if (kind == 6) {
          drawn.push_back("--on");
          continue;
        }
        if (kind == 7) {
          drawn.push_back("word");
          continue;
        }
        const std::string& flag = flags[kind];
        // A bare flag at the very end reads an empty value.
        const bool last = item + 1 == items;
        std::string value = values[rng.UniformInt(values.size())];
        const uint64_t form = rng.UniformInt(3);
        if (form == 0) {
          drawn.push_back(flag + "=" + value);
        } else if (form == 1 || !last) {
          drawn.push_back(flag);
          drawn.push_back(value);
        } else {
          drawn.push_back(flag);
          value.clear();
        }
        uint64_t u = 0;
        double d = 0.0;
        if (flag == "--count") {
          valid = valid && ParseUint(value, &u) && u >= 2 && u <= 9;
        } else if (flag == "--rate") {
          valid = valid && ParseDouble(value, &d) && d > 0.0;
        } else if (flag == "--cadence") {
          valid = valid && ParseDouble(value, &d) && d >= 0.0;
        } else if (flag == "--out") {
          valid = valid && !path_seen && !value.empty();
          path_seen = true;
        } else {
          valid = valid && !SplitCommaList(value).empty();
        }
      }
      // Built from a range, the vector's capacity is its size, so a
      // read past end() leaves the allocation (ASan reports it).
      const std::vector<std::string> args(drawn.begin(), drawn.end());
      Registry r;
      const Status status = r.Parse(args);
      ASSERT_EQ(status.ok(), valid) << status.message();
      (status.ok() ? accepted : rejected)++;
      if (!status.ok()) continue;
      EXPECT_GE(r.count, 2u);
      EXPECT_LE(r.count, 9u);
      EXPECT_GT(r.rate, 0.0);
      EXPECT_GE(r.cadence, 0.0);
      EXPECT_TRUE(std::isfinite(r.rate) && std::isfinite(r.cadence));
    }
  }
  EXPECT_GT(accepted, 500u);
  EXPECT_GT(rejected, 500u);
}

TEST(StringUtilTest, SplitCommaListFuzzNeverReturnsAnEmptyItem) {
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    Rng rng(seed);
    for (int iteration = 0; iteration < 1000; ++iteration) {
      const std::string list = RandomText(&rng, "ab, ", 16);
      std::string joined;
      for (const std::string& item : SplitCommaList(list)) {
        ASSERT_FALSE(item.empty()) << "'" << list << "'";
        ASSERT_EQ(item.find(','), std::string::npos) << "'" << list << "'";
        joined += item;
      }
      // Nothing but the commas went missing.
      std::string without_commas = list;
      without_commas.erase(
          std::remove(without_commas.begin(), without_commas.end(), ','),
          without_commas.end());
      ASSERT_EQ(joined, without_commas) << "'" << list << "'";
    }
  }
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
  EXPECT_DOUBLE_EQ(hist.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(hist.Percentile(100), LogHistogram::kMaxValue * 8);
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
  ParallelForWorkers(4, count, [&](uint32_t worker, size_t i) {
    ASSERT_LT(worker, 4u);
    hits[i].fetch_add(1, std::memory_order_relaxed);
    per_worker_sum[worker].fetch_add(i, std::memory_order_relaxed);
  });
  for (size_t i = 0; i < count; ++i) {
    EXPECT_EQ(hits[i].load(), 1u) << "index " << i;
  }
  // Worker-sharded accumulators sum to the full reduction.
  uint64_t total = 0;
  for (auto& sum : per_worker_sum) total += sum.load();
  EXPECT_EQ(total, static_cast<uint64_t>(count) * (count - 1) / 2);
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

// ---- Rng ------------------------------------------------------------------

/// Rng::UniformInt's rejection loop as first written: the limit's
/// division on every call and every draw tested against it. `redraws`
/// counts the draws it refused.
uint64_t ModuloRejectionReference(Rng* rng, uint64_t n, size_t* redraws) {
  if (n == 0) return 0;
  const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
  uint64_t draw;
  while ((draw = rng->Next()) >= limit) ++*redraws;
  return draw % n;
}

/// Inverts x ^ (x >> shift).
uint64_t UnXorShift(uint64_t y, unsigned shift) {
  uint64_t x = y;
  for (unsigned known = shift; known < 64; known += shift) {
    x = y ^ (x >> shift);
  }
  return x;
}

/// The inverse of an odd multiplier modulo 2^64 (Newton's iteration).
uint64_t InverseOdd(uint64_t c) {
  uint64_t inverse = c;
  for (int i = 0; i < 6; ++i) inverse *= 2 - c * inverse;
  return inverse;
}

/// A generator whose next raw draw is `draw`: splitmix64's output mix
/// is a bijection, so its state can be solved for.
Rng RngWhoseNextDrawIs(uint64_t draw) {
  uint64_t z = UnXorShift(draw, 31) * InverseOdd(0x94d049bb133111ebULL);
  z = UnXorShift(z, 27) * InverseOdd(0xbf58476d1ce4e5b9ULL);
  return Rng(UnXorShift(z, 30) - 0x9e3779b97f4a7c15ULL);
}

TEST(RngTest, UniformIntMatchesModuloRejectionReference) {
  constexpr uint64_t kTwo32 = uint64_t{1} << 32;
  constexpr uint64_t kTwo63 = uint64_t{1} << 63;
  size_t redraws = 0;
  for (uint64_t seed = 42; seed <= 45; ++seed) {
    // At 2^63 + 1 the limit is n itself, so about half of all draws
    // are refused: the loop's rare branch runs thousands of times.
    std::vector<uint64_t> ns = {0, 1, 2, 3, 7, kTwo32 - 1, kTwo32 + 1,
                                kTwo63 - 1, kTwo63, kTwo63 + 1, UINT64_MAX};
    Rng picker(seed + 1000);
    for (int i = 0; i < 8; ++i) {  // Random n at every magnitude.
      ns.push_back(picker.Next() >> picker.UniformInt(64));
    }
    for (const uint64_t n : ns) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << ", n " << n);
      Rng rng(seed);
      Rng reference(seed);
      for (int call = 0; call < 10000; ++call) {
        const uint64_t got = rng.UniformInt(n);
        ASSERT_EQ(got, ModuloRejectionReference(&reference, n, &redraws))
            << "call " << call;
        ASSERT_TRUE(n == 0 ? got == 0 : got < n);
        // Both generators consumed the same draws.
        Rng next = rng;
        Rng reference_next = reference;
        ASSERT_EQ(next.Next(), reference_next.Next()) << "call " << call;
      }
    }
  }
  EXPECT_GT(redraws, 10000u);
  // Random draws never land on the rejection limit; pin the first draw
  // on each side of it and of UINT64_MAX - n, the fast path's cut.
  for (uint64_t n : {uint64_t{1}, uint64_t{3}, kTwo32, kTwo63 - 1, kTwo63,
                     kTwo63 + 1, UINT64_MAX}) {
    const uint64_t limit = UINT64_MAX - UINT64_MAX % n;
    for (uint64_t first : {UINT64_MAX - n, UINT64_MAX - n + 1, limit - 1,
                           limit, UINT64_MAX}) {
      SCOPED_TRACE(testing::Message() << "n " << n << ", first " << first);
      Rng rng = RngWhoseNextDrawIs(first);
      ASSERT_EQ(Rng(rng).Next(), first);
      Rng reference = rng;
      ASSERT_EQ(rng.UniformInt(n),
                ModuloRejectionReference(&reference, n, &redraws));
      ASSERT_EQ(rng.Next(), reference.Next());
    }
  }
}

}  // namespace
}  // namespace oscar
