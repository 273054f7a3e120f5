// Formatting helpers used by the metrics tables and bench harnesses,
// plus the strict number and flag parsers the command-line tools share.

#ifndef OSCAR_COMMON_STRING_UTIL_H_
#define OSCAR_COMMON_STRING_UTIL_H_

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace oscar {

/// Concatenates the stream representations of all arguments.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::ostringstream os;
  (os << ... << args);
  return os.str();
}

/// Fixed-point rendering with `digits` decimals, e.g. FormatDouble(3.14159, 2)
/// == "3.14". Negative zero is normalized to "0".
std::string FormatDouble(double value, int digits);

/// Renders a fraction as a percentage, e.g. FormatPercent(0.853) == "85.3%".
std::string FormatPercent(double fraction, int digits = 1);

/// Parses a whole decimal unsigned integer. Rejects an empty string,
/// anything before the first digit (sign, whitespace), trailing text
/// (an embedded NUL included), and values that overflow uint64_t.
/// `out` is untouched on failure.
bool ParseUint(const std::string& text, uint64_t* out);

/// Parses a whole floating-point number. Rejects an empty string,
/// leading whitespace, trailing text (an embedded NUL included), values
/// out of double's range, and non-finite values (nan, inf). `out` is
/// untouched on failure.
bool ParseDouble(const std::string& text, double* out);

/// The command-line tools' one value-flag grammar: true when args[*i]
/// is `flag`, in either form. `--flag=value` yields the (possibly empty)
/// remainder; `--flag value` yields the next argument verbatim and
/// advances *i past it. A bare `flag` with nothing after it yields an
/// empty value, which every caller rejects like an empty `flag=`.
bool TakeFlag(const std::vector<std::string>& args, size_t* i,
              const std::string& flag, std::string* value);

/// Splits a comma-separated list, dropping empty items: "a,,b," yields
/// {"a", "b"} and ",," yields nothing.
std::vector<std::string> SplitCommaList(const std::string& list);

}  // namespace oscar

#endif  // OSCAR_COMMON_STRING_UTIL_H_
