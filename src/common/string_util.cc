#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iomanip>

namespace oscar {

std::string FormatDouble(double value, int digits) {
  if (value == 0.0) value = 0.0;  // Collapse -0.0.
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << value;
  return os.str();
}

std::string FormatPercent(double fraction, int digits) {
  return FormatDouble(fraction * 100.0, digits) + "%";
}

bool ParseUint(const std::string& text, uint64_t* out) {
  if (text.empty() || !std::isdigit(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) return false;
  *out = parsed;
  return true;
}

bool ParseDouble(const std::string& text, double* out) {
  if (text.empty() || std::isspace(static_cast<unsigned char>(text[0]))) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const double parsed = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size() ||
      !std::isfinite(parsed)) {
    return false;
  }
  *out = parsed;
  return true;
}

bool TakeFlag(const std::vector<std::string>& args, size_t* i,
              const std::string& flag, std::string* value) {
  const std::string& arg = args[*i];
  if (arg == flag) {
    const bool has_next = *i + 1 < args.size();
    *value = has_next ? args[++*i] : std::string();
    return true;
  }
  if (arg.size() <= flag.size() || arg[flag.size()] != '=' ||
      arg.compare(0, flag.size(), flag) != 0) {
    return false;
  }
  *value = arg.substr(flag.size() + 1);
  return true;
}

std::vector<std::string> SplitCommaList(const std::string& list) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= list.size()) {
    const size_t comma = list.find(',', start);
    const size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > start) out.push_back(list.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

}  // namespace oscar
