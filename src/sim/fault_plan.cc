#include "sim/fault_plan.h"

#include "churn/churn.h"
#include "common/string_util.h"

namespace oscar {
namespace {

/// Splits on `sep`, keeping empty fields (a trailing comma is a
/// malformed spec, not a silently shorter one).
std::vector<std::string> SplitAll(const std::string& text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(sep, start);
    if (pos == std::string::npos) {
      out.push_back(text.substr(start));
      return out;
    }
    out.push_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

Status Malformed(const std::string& fault, const std::string& why) {
  return Status::Error(
      StrCat("fault plan: '", fault, "': ", why,
             " (want kind@at[+dur]:fields — see --help)"));
}

const char* KindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kRegionCrash: return "crash";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kSlowdown: return "slow";
  }
  return "?";
}

}  // namespace

std::string FaultSpec::Label() const {
  std::string label = StrCat(KindName(kind), "@", FormatDouble(at_ms, 0));
  if (duration_ms > 0.0) {
    label += StrCat("+", FormatDouble(duration_ms, 0));
  }
  return label;
}

Result<FaultPlan> ParseFaultPlan(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return Status::Error("fault plan: empty spec");
  for (const std::string& fault : SplitAll(spec, ';')) {
    if (fault.empty()) return Malformed(fault, "empty fault");
    const size_t at_pos = fault.find('@');
    if (at_pos == std::string::npos) return Malformed(fault, "missing '@'");
    const size_t colon = fault.find(':', at_pos);
    if (colon == std::string::npos) return Malformed(fault, "missing ':'");

    FaultSpec parsed;
    const std::string kind = fault.substr(0, at_pos);
    if (kind == "crash") {
      parsed.kind = FaultKind::kRegionCrash;
    } else if (kind == "partition") {
      parsed.kind = FaultKind::kPartition;
    } else if (kind == "slow") {
      parsed.kind = FaultKind::kSlowdown;
    } else {
      return Malformed(fault, StrCat("unknown kind '", kind, "'"));
    }

    std::string when = fault.substr(at_pos + 1, colon - at_pos - 1);
    const size_t plus = when.find('+');
    if (plus != std::string::npos) {
      if (parsed.kind == FaultKind::kRegionCrash) {
        return Malformed(fault, "crashes are permanent (no +duration)");
      }
      if (!ParseDouble(when.substr(plus + 1), &parsed.duration_ms) ||
          parsed.duration_ms <= 0.0) {
        return Malformed(fault, "bad duration");
      }
      when = when.substr(0, plus);
    }
    if (!ParseDouble(when, &parsed.at_ms) || parsed.at_ms < 0.0) {
      return Malformed(fault, "bad injection time");
    }
    // The heal time, or the injection time when there is no duration.
    if (parsed.at_ms + parsed.duration_ms > kMaxFaultTimeMs) {
      return Malformed(fault, StrCat("time past ",
                                     FormatDouble(kMaxFaultTimeMs, 0),
                                     " ms"));
    }

    const std::vector<std::string> fields =
        SplitAll(fault.substr(colon + 1), ',');
    std::vector<double> numbers(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      if (!ParseDouble(fields[i], &numbers[i])) {
        return Malformed(fault, StrCat("bad field '", fields[i], "'"));
      }
    }
    auto region_ok = [](double center, double span) {
      return center >= 0.0 && center < 1.0 && span > 0.0 && span <= 1.0;
    };
    switch (parsed.kind) {
      case FaultKind::kRegionCrash:
        if (numbers.size() != 2 || !region_ok(numbers[0], numbers[1]) ||
            numbers[1] >= 1.0) {
          return Malformed(fault, "want center,span with span in (0,1)");
        }
        parsed.a = {KeyId::FromUnit(numbers[0]), numbers[1]};
        break;
      case FaultKind::kPartition:
        if (numbers.size() < 4 || numbers.size() > 5 ||
            !region_ok(numbers[0], numbers[1]) ||
            !region_ok(numbers[2], numbers[3])) {
          return Malformed(fault,
                           "want src_c,src_s,dst_c,dst_s[,loss]");
        }
        parsed.a = {KeyId::FromUnit(numbers[0]), numbers[1]};
        parsed.b = {KeyId::FromUnit(numbers[2]), numbers[3]};
        parsed.severity = numbers.size() == 5 ? numbers[4] : 1.0;
        if (parsed.severity <= 0.0 || parsed.severity > 1.0) {
          return Malformed(fault, "loss must be in (0,1]");
        }
        break;
      case FaultKind::kSlowdown:
        if (numbers.size() < 2 || numbers.size() > 3 ||
            !region_ok(numbers[0], numbers[1])) {
          return Malformed(fault, "want center,span[,multiplier]");
        }
        parsed.a = {KeyId::FromUnit(numbers[0]), numbers[1]};
        parsed.severity = numbers.size() == 3 ? numbers[2] : 25.0;
        if (parsed.severity < 1.0) {
          return Malformed(fault, "multiplier must be >= 1");
        }
        break;
    }
    plan.faults.push_back(parsed);
  }
  return plan;
}

void FaultInjector::Emit(TraceKind kind, size_t index) {
  if (sink_ == nullptr) return;
  TraceEvent event;
  event.t_us = TraceTimeUs(engine_->now());
  event.kind = kind;
  event.lookup = kTraceNone;
  event.peer = kTraceNone;
  event.to = kTraceNone;
  event.info = static_cast<uint32_t>(index);
  sink_->Append(event);
}

void FaultInjector::Inject(size_t index, const FaultSpec& spec) {
  InjectedFault& record = injected_[index];
  switch (spec.kind) {
    case FaultKind::kRegionCrash: {
      auto crashed = CrashSegment(net_, spec.a.from, spec.a.span);
      if (crashed.ok()) {
        record.crashed = crashed.value();
      } else if (status_.ok()) {
        status_ = crashed.status();
      }
      break;
    }
    case FaultKind::kPartition:
      active_->AddPartition(index, spec.a, spec.b, spec.severity);
      if (spec.symmetric) {
        active_->AddPartition(index, spec.b, spec.a, spec.severity);
      }
      break;
    case FaultKind::kSlowdown:
      active_->AddSlowdown(index, spec.a, spec.severity);
      break;
  }
  Emit(TraceKind::kFaultInject, index);
}

void FaultInjector::Heal(size_t index, const FaultSpec& spec) {
  (void)spec;
  active_->Heal(index);
  Emit(TraceKind::kFaultHeal, index);
}

void FaultInjector::Schedule(const FaultPlan& plan) {
  injected_.reserve(injected_.size() + plan.faults.size());
  for (const FaultSpec& spec : plan.faults) {
    const size_t index = injected_.size();
    InjectedFault record;
    record.index = index;
    record.label = spec.Label();
    record.at_ms = spec.at_ms;
    const bool heals =
        spec.kind != FaultKind::kRegionCrash && spec.duration_ms > 0.0;
    record.heal_ms = heals ? spec.at_ms + spec.duration_ms : -1.0;
    injected_.push_back(record);
    // Copy the spec into the handlers: the plan may be a temporary.
    engine_->ScheduleAt(spec.at_ms,
                        [this, index, spec] { Inject(index, spec); });
    if (heals) {
      engine_->ScheduleAt(record.heal_ms,
                          [this, index, spec] { Heal(index, spec); });
    }
  }
}

}  // namespace oscar
