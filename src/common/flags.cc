#include "common/flags.h"

#include <algorithm>
#include <iostream>

#include "common/string_util.h"

namespace oscar {

namespace {

Status Wants(const std::string& name, const std::string& wants,
             const std::string& value) {
  return Status::Error(StrCat(name, " wants ", wants, ", got '", value, "'"));
}

}  // namespace

void FlagSet::Switch(const std::string& name, bool* out) {
  Custom(name, "", [out](const std::string&) {
    *out = true;
    return Status::Ok();
  });
}

void FlagSet::Uint(const std::string& name, const std::string& metavar,
                   size_t lo, size_t* out, size_t hi) {
  const std::string wants = hi == SIZE_MAX ? StrCat("an integer >= ", lo)
                                           : StrCat(lo, "..", hi);
  Custom(name, metavar, [=](const std::string& value) {
    uint64_t parsed = 0;
    if (!ParseUint(value, &parsed) || parsed < lo || parsed > hi) {
      return Wants(name, wants, value);
    }
    *out = static_cast<size_t>(parsed);
    return Status::Ok();
  });
}

void FlagSet::Double(const std::string& name, const std::string& metavar,
                     Sign sign, double* out) {
  const bool positive = sign == Sign::kPositive;
  Custom(name, metavar, [=](const std::string& value) {
    double parsed = 0.0;
    if (!ParseDouble(value, &parsed) || parsed < 0.0 ||
        (positive && parsed == 0.0)) {
      return Wants(name, positive ? "a positive number"
                                  : "a non-negative number",
                   value);
    }
    *out = parsed;
    return Status::Ok();
  });
}

void FlagSet::List(const std::string& name, const std::string& metavar,
                   Repeat repeat, std::vector<std::string>* out) {
  Custom(name, metavar, [=](const std::string& value) {
    const std::vector<std::string> items = SplitCommaList(value);
    if (items.empty()) return Status::Error(name + " got an empty list");
    if (repeat == Repeat::kReplace) out->clear();
    out->insert(out->end(), items.begin(), items.end());
    return Status::Ok();
  });
}

void FlagSet::Path(const std::string& name, const std::string& metavar,
                   std::string* out) {
  Custom(name, metavar, [=](const std::string& value) {
    if (!out->empty()) return Status::Error("duplicate " + name);
    if (value.empty()) return Status::Error(name + " requires a path");
    *out = value;
    return Status::Ok();
  });
}

Status FlagSet::Parse(const std::vector<std::string>& args) {
  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "-h" || arg == "--help") {
      help_ = true;
      return Status::Ok();
    }
    std::string value;
    const auto flag =
        std::find_if(flags_.begin(), flags_.end(), [&](const Flag& f) {
          return f.metavar.empty() ? arg == f.name
                                   : TakeFlag(args, &i, f.name, &value);
        });
    if (flag != flags_.end()) {
      if (Status parsed = flag->parse(value); !parsed.ok()) return parsed;
    } else if (arg.rfind('-', 0) == 0) {
      return Status::Error(StrCat("unknown flag: '", arg, "'"));
    } else if (positional_ == nullptr) {
      return Status::Error(StrCat("unexpected argument: '", arg, "'"));
    } else {
      positional_->push_back(arg);
    }
  }
  return Status::Ok();
}

std::string FlagSet::Usage() const {
  std::string out = StrCat("usage: ", tool_, " [flags]",
                           positional_ ? " " + positional_metavar_ : "", "\n");
  for (const Flag& flag : flags_) {
    out += StrCat("  ", flag.name, flag.metavar.empty() ? "" : "=",
                  flag.metavar, "\n");
  }
  out += "  --help\nvalue flags take --flag=V or --flag V\n";
  for (const std::string& note : notes_) out += note + "\n";
  return out;
}

int FlagSet::Reject(const std::string& message) const {
  std::cerr << tool_ << ": " << message << "\n" << Usage();
  return 2;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace oscar
