// Offline analyzer for `.otrace` columnar binary traces (written by
// `oscar_sim --trace-file x.otrace` / `oscar_serve --trace-file=x.otrace`;
// format in src/trace/columnar_trace.h).
//
//   oscar_trace run.otrace                per-scope summaries: event-kind
//                                         counts, lookup latency
//                                         percentiles, queue-depth /
//                                         in-flight stats, and an ASCII
//                                         time x peer-bucket heatmap
//   oscar_trace run.otrace --csv          decode to CSV on stdout —
//                                         byte-identical to what the
//                                         direct CSV sink would have
//                                         streamed for the same run
//   oscar_trace run.otrace --time-buckets=96 --peer-buckets=24
//                                         heatmap resolution
//   oscar_trace run.otrace --no-heatmap   summaries only
//
// Value flags take `--flag=value` or `--flag value` (TakeFlag).
//
// Exit codes: 0 on success, 2 on flag-parse errors or an unreadable /
// corrupt trace file.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/string_util.h"
#include "metrics/message_metrics.h"
#include "trace/trace.h"
#include "trace/trace_reader.h"

namespace oscar {
namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: oscar_trace FILE.otrace [--csv] [--no-heatmap]\n"
         "                   [--time-buckets=N] [--peer-buckets=N]\n"
         "modes: default = per-scope summaries + heatmap; --csv = decode\n"
         "to the t_ms,scenario,event,... CSV rows on stdout\n"
         "value flags take --flag=N or --flag N\n";
}

int RejectUsage(const std::string& message) {
  std::cerr << "oscar_trace: " << message << "\n";
  PrintUsage(std::cerr);
  return 2;
}

/// Everything the summary mode aggregates for one scope (scenario or
/// sweep cell), in first-appearance order.
struct ScopeStats {
  std::string name;
  size_t total = 0;
  size_t counts[static_cast<size_t>(TraceKind::kCount)] = {};
  uint64_t t_min_us = 0;
  uint64_t t_max_us = 0;

  // Lookup lifecycle: start time by lookup id, closed latencies.
  std::map<uint32_t, uint64_t> open_lookups;
  std::vector<double> latencies_ms;
  size_t started = 0;
  size_t done = 0;
  size_t failed = 0;

  // Timeline gauges (sim kQueueDepth/kInFlight and the serve kinds).
  size_t depth_samples = 0;
  uint64_t depth_sum = 0;
  uint32_t depth_max = 0;
  uint32_t in_flight_max = 0;
  uint32_t backlog_max = 0;
  uint32_t served_dropped = 0;  // Cumulative, so last sample wins.
  uint32_t served_shed = 0;

  // Heatmap input: peer-bearing events as (t_us, peer).
  std::vector<std::pair<uint64_t, uint32_t>> peer_events;
  uint32_t peer_max = 0;
};

size_t CountOf(const ScopeStats& scope, TraceKind kind) {
  return scope.counts[static_cast<size_t>(kind)];
}

void Aggregate(const TraceEvent& event, ScopeStats* scope) {
  if (scope->total == 0) {
    scope->t_min_us = event.t_us;
    scope->t_max_us = event.t_us;
  } else {
    scope->t_min_us = std::min(scope->t_min_us, event.t_us);
    scope->t_max_us = std::max(scope->t_max_us, event.t_us);
  }
  ++scope->total;
  ++scope->counts[static_cast<size_t>(event.kind)];
  switch (event.kind) {
    case TraceKind::kStart:
      ++scope->started;
      scope->open_lookups[event.lookup] = event.t_us;
      break;
    case TraceKind::kDone:
    case TraceKind::kFailed: {
      event.kind == TraceKind::kDone ? ++scope->done : ++scope->failed;
      auto it = scope->open_lookups.find(event.lookup);
      if (it != scope->open_lookups.end()) {
        scope->latencies_ms.push_back(
            static_cast<double>(event.t_us - it->second) / 1000.0);
        scope->open_lookups.erase(it);
      }
      break;
    }
    case TraceKind::kQueueDepth:
    case TraceKind::kServeQueueDepth:
      ++scope->depth_samples;
      scope->depth_sum += event.info;
      scope->depth_max = std::max(scope->depth_max, event.info);
      break;
    case TraceKind::kInFlight:
      scope->in_flight_max = std::max(scope->in_flight_max, event.info);
      if (event.to != kTraceNone) {
        scope->backlog_max = std::max(scope->backlog_max, event.to);
      }
      break;
    case TraceKind::kServeInFlight:
      scope->in_flight_max = std::max(scope->in_flight_max, event.info);
      break;
    case TraceKind::kServeDropped:
      scope->served_dropped = event.info;
      if (event.to != kTraceNone) scope->served_shed = event.to;
      break;
    default:
      break;
  }
  if (event.peer != kTraceNone) {
    scope->peer_events.emplace_back(event.t_us, event.peer);
    scope->peer_max = std::max(scope->peer_max, event.peer);
  }
}

/// Density ramp from empty to saturated; any non-zero cell gets at
/// least the first non-blank glyph.
constexpr char kRamp[] = " .:-=+*#%@";
constexpr size_t kRampLevels = sizeof(kRamp) - 1;

void PrintHeatmap(const ScopeStats& scope, size_t time_buckets,
                  size_t peer_buckets) {
  if (scope.peer_events.empty()) return;
  peer_buckets = std::min<size_t>(
      peer_buckets, static_cast<size_t>(scope.peer_max) + 1);
  const uint64_t t0 = scope.t_min_us;
  const uint64_t span = scope.t_max_us - t0 + 1;
  std::vector<std::vector<size_t>> grid(
      peer_buckets, std::vector<size_t>(time_buckets, 0));
  for (const auto& [t_us, peer] : scope.peer_events) {
    const size_t col = static_cast<size_t>(
        static_cast<uint64_t>(time_buckets) * (t_us - t0) / span);
    const size_t row = static_cast<size_t>(
        static_cast<uint64_t>(peer_buckets) * peer /
        (static_cast<uint64_t>(scope.peer_max) + 1));
    ++grid[row][col];
  }
  size_t cell_max = 0;
  for (const auto& row : grid) {
    for (size_t cell : row) cell_max = std::max(cell_max, cell);
  }
  std::cout << "heatmap: peer-bearing events, t=["
            << TraceTimeMs(scope.t_min_us) << ".."
            << TraceTimeMs(scope.t_max_us) << "] ms ("
            << time_buckets << " cols) x peers 0.." << scope.peer_max
            << " (" << peer_buckets << " rows), max cell=" << cell_max
            << "\n";
  const size_t peers_per_row =
      (static_cast<size_t>(scope.peer_max) + peer_buckets) / peer_buckets;
  for (size_t row = 0; row < peer_buckets; ++row) {
    std::string line;
    line.reserve(time_buckets);
    for (size_t col = 0; col < time_buckets; ++col) {
      const size_t count = grid[row][col];
      size_t level = 0;
      if (count > 0) {
        // Ceiling-scale so 1 event is visible and cell_max saturates.
        level = 1 + (count - 1) * (kRampLevels - 2) / cell_max;
        level = std::min(level, kRampLevels - 1);
      }
      line.push_back(kRamp[level]);
    }
    char label[32];
    std::snprintf(label, sizeof(label), "p%6zu |", row * peers_per_row);
    std::cout << label << line << "|\n";
  }
}

void PrintScopeSummary(const ScopeStats& scope, bool heatmap,
                       size_t time_buckets, size_t peer_buckets) {
  std::cout << "== scope \""
            << (scope.name.empty() ? "(default)" : scope.name) << "\" ==\n"
            << "events: " << scope.total << " over ["
            << TraceTimeMs(scope.t_min_us) << ".."
            << TraceTimeMs(scope.t_max_us) << "] ms\n";
  std::string kinds = "kinds:";
  for (size_t k = 0; k < static_cast<size_t>(TraceKind::kCount); ++k) {
    if (scope.counts[k] == 0) continue;
    kinds += StrCat(" ", TraceKindName(static_cast<TraceKind>(k)), "=",
                    scope.counts[k]);
  }
  std::cout << kinds << "\n";
  if (scope.started > 0) {
    std::cout << "lookups: started=" << scope.started
              << " done=" << scope.done << " failed=" << scope.failed
              << " open=" << scope.open_lookups.size() << "\n";
    if (!scope.latencies_ms.empty()) {
      const LatencySummary latency =
          SummarizeLatency(scope.latencies_ms);
      std::cout << "latency_ms: mean=" << FormatDouble(latency.mean_ms, 3)
                << " p50=" << FormatDouble(latency.p50_ms, 3)
                << " p95=" << FormatDouble(latency.p95_ms, 3)
                << " p99=" << FormatDouble(latency.p99_ms, 3)
                << " max=" << FormatDouble(latency.max_ms, 3) << "\n";
    }
  }
  if (scope.depth_samples > 0) {
    std::cout << "queue_depth: samples=" << scope.depth_samples
              << " max=" << scope.depth_max << " mean="
              << FormatDouble(static_cast<double>(scope.depth_sum) /
                                  static_cast<double>(scope.depth_samples),
                              2)
              << "\n";
  }
  if (scope.in_flight_max > 0 || scope.backlog_max > 0) {
    std::cout << "in_flight: max=" << scope.in_flight_max
              << " backlog_max=" << scope.backlog_max << "\n";
  }
  if (CountOf(scope, TraceKind::kServeDropped) > 0) {
    std::cout << "serve: dropped=" << scope.served_dropped
              << " shed=" << scope.served_shed << "\n";
  }
  if (heatmap) PrintHeatmap(scope, time_buckets, peer_buckets);
  std::cout << "\n";
}

/// --csv: replays the decoded records through the same CsvTraceSink
/// class both CLIs use for direct CSV traces, so the bytes match the
/// direct path by construction.
void ReplayCsv(const TraceContents& contents) {
  CsvTraceSink sink(&std::cout);
  for (const TraceRecord& record : contents.records) {
    sink.SetScope(sink.Intern(contents.scope_text(record)));
    sink.Append(record.event);
  }
  sink.Flush();
}

int RunCli(const std::vector<std::string>& args) {
  std::string path;
  bool csv = false;
  bool heatmap = true;
  uint64_t time_buckets = 72;
  uint64_t peer_buckets = 16;

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--no-heatmap") {
      heatmap = false;
    } else if (TakeFlag(args, &i, "--time-buckets", &value)) {
      if (!ParseUint(value, &time_buckets) || time_buckets == 0 ||
          time_buckets > 512) {
        return RejectUsage(StrCat("--time-buckets wants 1..512, got '",
                                  value, "'"));
      }
    } else if (TakeFlag(args, &i, "--peer-buckets", &value)) {
      if (!ParseUint(value, &peer_buckets) || peer_buckets == 0 ||
          peer_buckets > 256) {
        return RejectUsage(StrCat("--peer-buckets wants 1..256, got '",
                                  value, "'"));
      }
    } else if (!arg.empty() && arg[0] == '-') {
      return RejectUsage(StrCat("unknown flag: '", arg, "'"));
    } else if (path.empty()) {
      path = arg;
    } else {
      return RejectUsage("expected exactly one trace file");
    }
  }
  if (path.empty()) {
    return RejectUsage("missing trace file argument");
  }

  auto decoded = ReadTraceFile(path);
  if (!decoded.ok()) return RejectUsage(decoded.status().message());
  const TraceContents& contents = decoded.value();

  if (csv) {
    ReplayCsv(contents);
    if (!std::cout) {
      std::cerr << "oscar_trace: error writing CSV to stdout\n";
      return 2;
    }
    return 0;
  }

  // Group by scope, first-appearance order (matches emission order).
  std::vector<ScopeStats> scopes;
  std::map<uint32_t, size_t> scope_index;
  for (const TraceRecord& record : contents.records) {
    auto [it, fresh] = scope_index.emplace(record.scope, scopes.size());
    if (fresh) {
      scopes.emplace_back();
      scopes.back().name = contents.scope_text(record);
    }
    Aggregate(record.event, &scopes[it->second]);
  }

  std::cout << "# oscar_trace: " << path << "\n"
            << "# " << contents.records.size() << " events in "
            << contents.blocks << " blocks, " << scopes.size()
            << " scopes, " << contents.strings.size()
            << " interned strings\n\n";
  for (const ScopeStats& scope : scopes) {
    PrintScopeSummary(scope, heatmap, static_cast<size_t>(time_buckets),
                      static_cast<size_t>(peer_buckets));
  }
  return 0;
}

}  // namespace
}  // namespace oscar

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return oscar::RunCli(args);
}
