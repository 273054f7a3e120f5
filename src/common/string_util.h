// Formatting helpers used by the metrics tables and bench harnesses,
// plus the strict number and flag parsers the command-line tools share.

#ifndef OSCAR_COMMON_STRING_UTIL_H_
#define OSCAR_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <sstream>
#include <string>

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
/// anything before the first digit (sign, whitespace), trailing text,
/// and values that overflow uint64_t. `out` is untouched on failure.
bool ParseUint(const std::string& text, uint64_t* out);

/// Parses a whole floating-point number. Rejects an empty string,
/// leading whitespace, trailing text, values out of double's range,
/// and non-finite values (nan, inf). `out` is untouched on failure.
bool ParseDouble(const std::string& text, double* out);

/// `--flag=value` splitter: true when `arg` starts with `flag=`, with
/// the (possibly empty) remainder in `value`.
bool FlagValue(const std::string& arg, const std::string& flag,
               std::string* value);

}  // namespace oscar

#endif  // OSCAR_COMMON_STRING_UTIL_H_
