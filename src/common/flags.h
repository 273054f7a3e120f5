// The command-line tools' one front end. A FlagSet declares each flag
// once, with its name, its metavar and its value rule; `Parse` applies
// the rules and `Usage` renders the usage text from the same table, so
// the accepted flags and the usage text cannot drift apart.
//
// Value flags take `--flag=value` or `--flag value` (TakeFlag). `-h` and
// `--help` are built in. Any other argument that starts with `-` and
// names no flag is rejected; the rest are positional arguments.

#ifndef OSCAR_COMMON_FLAGS_H_
#define OSCAR_COMMON_FLAGS_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace oscar {

class FlagSet {
 public:
  enum class Sign { kPositive, kNonNegative };  // Which doubles to take.
  enum class Repeat { kAccumulate, kReplace };  // A repeated list's items.
  /// Stores a flag's value, or returns the diagnostic.
  using Parser = std::function<Status(const std::string& value)>;

  /// `tool` prefixes the diagnostics and heads the usage text.
  explicit FlagSet(std::string tool) : tool_(std::move(tool)) {}

  /// `name` alone sets *out to true.
  void Switch(const std::string& name, bool* out);
  /// A whole decimal integer (ParseUint) in [lo, hi].
  void Uint(const std::string& name, const std::string& metavar, size_t lo,
            size_t* out, size_t hi = SIZE_MAX);
  /// A finite double (ParseDouble) that is > 0 or >= 0.
  void Double(const std::string& name, const std::string& metavar, Sign sign,
              double* out);
  /// A comma list (SplitCommaList) with at least one non-empty item.
  void List(const std::string& name, const std::string& metavar,
            Repeat repeat, std::vector<std::string>* out);
  /// A non-empty path, given at most once (*out starts empty).
  void Path(const std::string& name, const std::string& metavar,
            std::string* out);
  /// Any other value rule.
  void Custom(const std::string& name, const std::string& metavar,
              Parser parse) {
    flags_.push_back({name, metavar, std::move(parse)});
  }
  /// Positional arguments go to *out; without this call each one is
  /// rejected. `metavar` is printed as given, e.g. "[scenario ...]".
  void Positional(const std::string& metavar, std::vector<std::string>* out) {
    positional_metavar_ = metavar;
    positional_ = out;
  }
  /// A line printed after the flag list (catalogs, modes).
  void Note(const std::string& line) { notes_.push_back(line); }

  /// Applies the rules to `args` in order and returns the first
  /// violation's diagnostic. Stops early at `-h`/`--help`.
  Status Parse(const std::vector<std::string>& args);
  /// True once `Parse` met `-h` or `--help`.
  bool help() const { return help_; }
  /// The usage line, one line per flag, the value grammar and the notes.
  std::string Usage() const;
  /// Prints `<tool>: <message>` and the usage text to stderr; returns 2,
  /// the tools' exit code for a rejected invocation.
  int Reject(const std::string& message) const;

 private:
  struct Flag {
    std::string name;
    std::string metavar;  // Empty for a switch.
    Parser parse;
  };

  std::string tool_;
  std::vector<Flag> flags_;
  std::string positional_metavar_;
  std::vector<std::string>* positional_ = nullptr;
  std::vector<std::string> notes_;
  bool help_ = false;
};

/// Wall seconds since `start`, for the tools' stderr timing lines.
double SecondsSince(std::chrono::steady_clock::time_point start);

}  // namespace oscar

#endif  // OSCAR_COMMON_FLAGS_H_
