#include "trace/trace.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

namespace oscar {

const char* TraceKindName(TraceKind kind) {
  switch (kind) {
    case TraceKind::kBacklog: return "backlog";
    case TraceKind::kStart: return "start";
    case TraceKind::kForward: return "fwd";
    case TraceKind::kBacktrack: return "back";
    case TraceKind::kStranded: return "stranded";
    case TraceKind::kLost: return "lost";
    case TraceKind::kTimeoutDead: return "timeout_dead";
    case TraceKind::kRetry: return "retry";
    case TraceKind::kDrop: return "drop";
    case TraceKind::kDone: return "done";
    case TraceKind::kFailed: return "failed";
    case TraceKind::kQueueDepth: return "queue_depth";
    case TraceKind::kInFlight: return "in_flight";
    case TraceKind::kServeQueueDepth: return "serve_queue";
    case TraceKind::kServeInFlight: return "serve_busy";
    case TraceKind::kServeDropped: return "serve_dropped";
    case TraceKind::kMaintRound: return "maint_round";
    case TraceKind::kFaultInject: return "fault_inject";
    case TraceKind::kFaultHeal: return "fault_heal";
    case TraceKind::kCount: break;
  }
  return "unknown";
}

uint64_t TraceTimeUs(double t_ms) {
  // Quantize through the exact %.3f rendering the legacy CSV used:
  // snprintf does the decimal rounding, the digits become the integer.
  // This is the one place times turn into integers, so every sink and
  // the reader agree with the old bytes by construction.
  char buf[64];
  const int len = std::snprintf(buf, sizeof(buf), "%.3f", t_ms);
  if (len <= 0 || len >= static_cast<int>(sizeof(buf)) || buf[0] == '-' ||
      (buf[0] < '0' || buf[0] > '9')) {
    return 0;  // Negative/NaN/overflow: virtual time is never any of these.
  }
  uint64_t us = 0;
  for (const char* p = buf; *p != '\0'; ++p) {
    if (*p == '.') continue;
    us = us * 10 + static_cast<uint64_t>(*p - '0');
  }
  return us;
}

std::string TraceTimeMs(uint64_t t_us) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64 ".%03u", t_us / 1000,
                static_cast<unsigned>(t_us % 1000));
  return buf;
}

uint32_t BasicTraceSink::Intern(const std::string& text) {
  const auto it = ids_.find(text);
  if (it != ids_.end()) return it->second;
  const uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.push_back(text);
  ids_.emplace(text, id);
  OnNewString(id, strings_.back());
  return id;
}

void BasicTraceSink::OnNewString(uint32_t /*id*/,
                                 const std::string& /*text*/) {}

CsvTraceSink::CsvTraceSink(std::ostream* out) : out_(out) {
  *out_ << Header();
}

void CsvTraceSink::Append(const TraceEvent& event) {
  std::ostream& out = *out_;
  out << TraceTimeMs(event.t_us) << ',' << scope_text() << ','
      << TraceKindName(event.kind) << ',';
  if (event.lookup != kTraceNone) out << event.lookup;
  out << ',';
  if (event.peer != kTraceNone) out << event.peer;
  out << ',';
  if (event.to != kTraceNone) out << event.to;
  out << ',' << event.info << '\n';
}

Status CsvTraceSink::Flush() {
  out_->flush();
  if (!*out_) return Status::Error("csv trace: stream write failed");
  return Status::Ok();
}

}  // namespace oscar
