// Structured event tracing shared by both engines. A trace is a flat
// stream of fixed-width TraceEvents — virtual time quantized to u64
// microseconds, an event kind from a closed u8 enum, and three u32
// id/payload columns — tagged with an interned scenario scope. Sinks
// decide the encoding: the CSV sink is a thin adapter for the
// determinism tests and the `--csv` escape hatch; the columnar writer
// (columnar_trace.h) is the one that survives million-lookup runs.
//
// Instrumentation contract: emitting is guarded at the call site
// (`if (no sink) return;` before any argument is materialized), so a
// detached trace costs one pointer test per would-be event.

#ifndef OSCAR_TRACE_TRACE_H_
#define OSCAR_TRACE_TRACE_H_

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/status.h"

namespace oscar {

/// Closed catalog of trace event kinds. The wire format stores the u8
/// value, so members are append-only: adding kinds is free, reordering
/// or deleting them breaks every `.otrace` file on disk.
enum class TraceKind : uint8_t {
  // Message-engine lookup lifecycle (the legacy CSV rows).
  kBacklog = 0,      // Admission backlog; peer = source.
  kStart = 1,        // Lookup activated; peer = source.
  kForward = 2,      // Hop forward; peer -> to, info = dead probes.
  kBacktrack = 3,    // Hop backtrack; peer -> to, info = dead probes.
  kStranded = 4,     // Message aboard a crashed peer; peer = the peer.
  kLost = 5,         // Transmission lost; peer -> to.
  kTimeoutDead = 6,  // Dead hop discovered by silence; peer = dead, to = resume.
  kRetry = 7,        // Transmission resent; peer -> to, info = attempt.
  kDrop = 8,         // Retry budget exhausted; peer -> to, info = attempts.
  kDone = 9,         // Lookup succeeded; peer = source, info = hops.
  kFailed = 10,      // Lookup failed; peer = source, info = hops.
  // Periodic virtual-time timeline samples (message engine).
  kQueueDepth = 11,  // Per-peer service queue depth; peer = peer, info = depth.
  kInFlight = 12,    // Active lookups; info = count, to = backlog depth.
  // Periodic virtual-time timeline samples (serve sweep, per cell).
  kServeQueueDepth = 13,  // Wait-queue depth; info = depth.
  kServeInFlight = 14,    // Busy service slots; info = count.
  kServeDropped = 15,     // Cumulative refused; info = dropped, to = shed.
  // Self-healing instrumentation (fault injection + maintenance rounds).
  kMaintRound = 16,   // Repair round ran; peer = pruned, to = rebuilt,
                      // info = sampling steps spent.
  kFaultInject = 17,  // FaultPlan fault armed; info = fault index.
  kFaultHeal = 18,    // FaultPlan fault healed; info = fault index.
  kCount,
};

/// The `event` column name for a kind (matches the legacy CSV names for
/// the lookup-lifecycle kinds). Out-of-range kinds yield "unknown".
const char* TraceKindName(TraceKind kind);

/// Sentinel for an absent peer/to/lookup column (rendered empty in CSV;
/// 0 is a real peer id). Real ids are dense indices, far below this.
constexpr uint32_t kTraceNone = 0xffffffffu;

/// One fixed-width trace event. `t_us` is virtual milliseconds
/// quantized by TraceTimeUs, so every sink renders identical times.
struct TraceEvent {
  uint64_t t_us = 0;
  TraceKind kind = TraceKind::kStart;
  uint32_t lookup = kTraceNone;
  uint32_t peer = kTraceNone;
  uint32_t to = kTraceNone;
  uint32_t info = 0;

  friend bool operator==(const TraceEvent& a, const TraceEvent& b) {
    return a.t_us == b.t_us && a.kind == b.kind && a.lookup == b.lookup &&
           a.peer == b.peer && a.to == b.to && a.info == b.info;
  }
};

/// Quantizes a virtual time in milliseconds to integer microseconds
/// with exactly printf-%.3f rounding, so rendering the integer back
/// reproduces the legacy FormatDouble(t_ms, 3) bytes.
uint64_t TraceTimeUs(double t_ms);

/// Renders quantized microseconds as the legacy t_ms column ("12.345").
std::string TraceTimeMs(uint64_t t_us);

/// Where trace events go. Implementations are single-threaded — both
/// engines emit from deterministic sequential code.
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Interns `text`, returning a stable id (idempotent per sink).
  virtual uint32_t Intern(const std::string& text) = 0;

  /// Sets the scope (scenario / sweep-cell label, by interned id) that
  /// subsequent events are tagged with.
  virtual void SetScope(uint32_t scope_id) = 0;

  virtual void Append(const TraceEvent& event) = 0;

  /// Drains buffered state to the backing store. Writers with framing
  /// may emit a partial block; safe to call repeatedly.
  virtual Status Flush() = 0;
};

/// Shared Intern/SetScope bookkeeping: a string table plus the current
/// scope id. Subclasses render on Append.
class BasicTraceSink : public TraceSink {
 public:
  uint32_t Intern(const std::string& text) override;
  void SetScope(uint32_t scope_id) override { scope_ = scope_id; }
  Status Flush() override { return Status::Ok(); }

 protected:
  const std::string& scope_text() const { return strings_[scope_]; }
  uint32_t scope() const { return scope_; }

  /// Called once when Intern first sees `text` (after it got `id`).
  virtual void OnNewString(uint32_t id, const std::string& text);

  // id 0 is the empty scope, pre-interned so a sink with no SetScope
  // call still renders a well-formed (empty) scenario column.
  std::vector<std::string> strings_ = {""};
  std::map<std::string, uint32_t> ids_ = {{"", 0}};
  uint32_t scope_ = 0;
};

/// CSV adapter: the legacy streaming row format with `scenario` as a
/// proper column — `t_ms,scenario,event,lookup,peer,to,info`, header
/// exactly once (at construction), absent columns empty. oscar_trace
/// --csv replays a decoded `.otrace` through this same sink, which is
/// what makes the round trip byte-exact by construction.
class CsvTraceSink : public BasicTraceSink {
 public:
  /// Writes the header immediately; `out` must outlive the sink.
  explicit CsvTraceSink(std::ostream* out);
  void Append(const TraceEvent& event) override;
  Status Flush() override;

  static const char* Header() {
    return "t_ms,scenario,event,lookup,peer,to,info\n";
  }

 private:
  std::ostream* out_;
};

}  // namespace oscar

#endif  // OSCAR_TRACE_TRACE_H_
