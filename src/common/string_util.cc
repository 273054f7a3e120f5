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
  if (errno == ERANGE || end == nullptr || *end != '\0') return false;
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
  if (errno == ERANGE || end == nullptr || *end != '\0' ||
      !std::isfinite(parsed)) {
    return false;
  }
  *out = parsed;
  return true;
}

bool FlagValue(const std::string& arg, const std::string& flag,
               std::string* value) {
  const std::string prefix = flag + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

}  // namespace oscar
