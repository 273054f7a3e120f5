// Open-loop lookup firehose over a frozen snapshot: grow once, freeze,
// route the lookup stream across the worker pool, then sweep offered
// rates x admission policies through the deterministic virtual-time
// serving model (see src/serve/load_generator.h for the two-clock
// design).
//
//   oscar_serve                          default sweep, summary tables
//   oscar_serve --rates=4000,0           offered lookups/s (0 = rate
//                                        limiting off: one burst at t=0)
//   oscar_serve --policies=none,timeout  admission policies to compare
//   oscar_serve --hot-keys=16            Zipf-hot query keys
//   oscar_serve --trace-file=F           per-cell admission/queue-depth
//                                        timelines from the virtual-time
//                                        sweep into F, which must end in
//                                        `.otrace` (`oscar_trace F --csv`
//                                        decodes it; --queue-cadence-ms=N
//                                        sets the sample cadence)
//   oscar_serve --list-policies          print the admission catalog
//
// Value flags take `--flag=value` or `--flag value` (TakeFlag).
//
// Topology scale and seed come from the usual env knobs
// (OSCAR_BENCH_SCALE/SIZE/SEED); the route-phase worker count from
// OSCAR_THREADS. stdout is byte-identical across runs AND across
// OSCAR_THREADS for identical knobs — wall-clock throughput goes to
// stderr.
//
// Exit codes: 0 on success, 2 on flag-parse or infrastructure errors.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/audit.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/experiments.h"
#include "serve/admission.h"
#include "serve/load_generator.h"
#include "sim/scenario.h"
#include "trace/trace_file.h"

namespace oscar {
namespace {

void PrintUsage(std::ostream& out) {
  out << "usage: oscar_serve [--lookups=N] [--rates=r1,r2,...]\n"
         "                   [--policies=p1,p2,...] [--concurrency=C]\n"
         "                   [--burst=B] [--hop-ms=MS] [--hot-keys=K]\n"
         "                   [--zipf=S] [--queue-cap=Q] [--timeout-ms=MS]\n"
         "                   [--peer-cap=K]\n"
         "                   [--trace-file=F.otrace] [--queue-cadence-ms=MS]\n"
         "                   [--list-policies]\n"
         "policies:";
  for (const std::string& name : AdmissionCatalog()) out << " " << name;
  out << "\nrates are offered lookups/s; 0 disables rate limiting "
         "(burst at t=0)\nvalue flags take --flag=V or --flag V\n"
         "CSV trace rows: oscar_trace F.otrace --csv\n";
}

/// Flag-parse rejection: one diagnostic plus the usage text, exit 2.
int RejectUsage(const std::string& message) {
  std::cerr << "oscar_serve: " << message << "\n";
  PrintUsage(std::cerr);
  return 2;
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void PrintBanner(const ScenarioOptions& base, const ServeOptions& serve) {
  std::cout << "###############################################\n"
            << "# oscar_serve\n"
            << "# Open-loop lookup firehose over a frozen snapshot\n"
            << "# n=" << base.network_size << " seed=" << base.seed
            << " lookups=" << serve.lookups
            << " concurrency=" << serve.concurrency
            << " hop_ms=" << FormatDouble(serve.hop_ms, 2)
            << " burst=" << FormatDouble(serve.burst, 0) << "\n"
            << "# admission: queue-cap=" << serve.admission.queue_capacity
            << " timeout-ms=" << FormatDouble(serve.admission.timeout_ms, 1)
            << " peer-cap=" << serve.admission.per_peer_cap << "\n"
            << "# keys: "
            << (serve.hot_keys == 0
                    ? std::string("uniform")
                    : StrCat("zipf-hot(", serve.hot_keys, ", s=",
                             FormatDouble(serve.zipf_exponent, 2), ")"))
            << "\n"
            << "###############################################\n";
}

void PrintTables(const ServeReport& report) {
  TablePrinter route("route phase (frozen snapshot, CSR greedy)");
  route.SetHeader({"routed", "ok%", "msgs", "svc_p50", "svc_p99",
                   "svc_p99.9", "svc_max"});
  route.AddRow({
      StrCat(report.routed),
      FormatDouble(report.route_success_rate * 100.0, 1),
      FormatDouble(report.mean_messages, 2),
      FormatDouble(report.service.p50_ms, 2),
      FormatDouble(report.service.p99_ms, 2),
      FormatDouble(report.service.p999_ms, 2),
      FormatDouble(report.service.max_ms, 2),
  });
  route.Print(std::cout);

  TablePrinter table("serving sweep (virtual time; rate 0 = limiter off)");
  table.SetHeader({"offered/s", "policy", "submitted", "drop", "shed",
                   "done", "ok%", "achieved/s", "q_peak", "p50_ms",
                   "p90_ms", "p99_ms", "p99.9_ms", "max_ms"});
  for (const ServeCellReport& cell : report.cells) {
    table.AddRow({
        cell.offered_per_s <= 0.0 ? "off"
                                  : FormatDouble(cell.offered_per_s, 0),
        cell.policy,
        StrCat(cell.submitted),
        StrCat(cell.dropped),
        StrCat(cell.shed),
        StrCat(cell.completed),
        FormatDouble(cell.completed == 0
                         ? 0.0
                         : 100.0 * static_cast<double>(cell.succeeded) /
                               static_cast<double>(cell.completed),
                     1),
        FormatDouble(cell.achieved_per_s, 0),
        FormatDouble(cell.queue_peak, 0),
        FormatDouble(cell.latency.p50_ms, 2),
        FormatDouble(cell.latency.p90_ms, 2),
        FormatDouble(cell.latency.p99_ms, 2),
        FormatDouble(cell.latency.p999_ms, 2),
        FormatDouble(cell.latency.max_ms, 2),
    });
  }
  table.Print(std::cout);
  std::cout << "# total submitted across sweep: " << report.total_submitted
            << " lookups (" << report.routed << " routed once, replayed "
            << report.cells.size() << "x)\n";
}

int RunCli(const std::vector<std::string>& args) {
  // Runtime invariant audits (common/audit.h): the growth/freeze path
  // under this CLI self-checks when OSCAR_AUDIT=1. Stderr only.
  if (AuditEnabled()) {
    std::cerr << "oscar_serve: OSCAR_AUDIT=1 — runtime invariant audits on\n";
  }
  ServeOptions serve;
  bool list_policies = false;
  std::string trace_path;

  for (size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string value;
    uint64_t number = 0;
    double real = 0.0;
    if (arg == "--help" || arg == "-h") {
      PrintUsage(std::cout);
      return 0;
    } else if (arg == "--list-policies") {
      list_policies = true;
    } else if (TakeFlag(args, &i, "--lookups", &value)) {
      if (!ParseUint(value, &number) || number == 0) {
        return RejectUsage(StrCat("--lookups wants a positive integer, "
                                  "got '", value, "'"));
      }
      serve.lookups = static_cast<size_t>(number);
    } else if (TakeFlag(args, &i, "--concurrency", &value)) {
      if (!ParseUint(value, &number) || number == 0) {
        return RejectUsage(StrCat("--concurrency wants a positive "
                                  "integer, got '", value, "'"));
      }
      serve.concurrency = static_cast<size_t>(number);
    } else if (TakeFlag(args, &i, "--hot-keys", &value)) {
      if (!ParseUint(value, &number)) {
        return RejectUsage(StrCat("--hot-keys wants a non-negative "
                                  "integer, got '", value, "'"));
      }
      serve.hot_keys = static_cast<size_t>(number);
    } else if (TakeFlag(args, &i, "--queue-cap", &value)) {
      if (!ParseUint(value, &number) || number == 0) {
        return RejectUsage(StrCat("--queue-cap wants a positive integer, "
                                  "got '", value, "'"));
      }
      serve.admission.queue_capacity = static_cast<size_t>(number);
    } else if (TakeFlag(args, &i, "--peer-cap", &value)) {
      if (!ParseUint(value, &number) || number == 0) {
        return RejectUsage(StrCat("--peer-cap wants a positive integer, "
                                  "got '", value, "'"));
      }
      serve.admission.per_peer_cap = static_cast<size_t>(number);
    } else if (TakeFlag(args, &i, "--burst", &value)) {
      if (!ParseDouble(value, &real) || real <= 0.0) {
        return RejectUsage(StrCat("--burst wants a positive number, "
                                  "got '", value, "'"));
      }
      serve.burst = real;
    } else if (TakeFlag(args, &i, "--hop-ms", &value)) {
      if (!ParseDouble(value, &real) || real <= 0.0) {
        return RejectUsage(StrCat("--hop-ms wants a positive number, "
                                  "got '", value, "'"));
      }
      serve.hop_ms = real;
    } else if (TakeFlag(args, &i, "--zipf", &value)) {
      if (!ParseDouble(value, &real) || real <= 0.0) {
        return RejectUsage(StrCat("--zipf wants a positive exponent, "
                                  "got '", value, "'"));
      }
      serve.zipf_exponent = real;
    } else if (TakeFlag(args, &i, "--timeout-ms", &value)) {
      if (!ParseDouble(value, &real) || real <= 0.0) {
        return RejectUsage(StrCat("--timeout-ms wants a positive number, "
                                  "got '", value, "'"));
      }
      serve.admission.timeout_ms = real;
    } else if (TakeFlag(args, &i, "--rates", &value)) {
      std::vector<std::string> parts = SplitCommaList(value);
      if (parts.empty()) {
        return RejectUsage("--rates got an empty list");
      }
      serve.offered_rates_per_s.clear();
      for (const std::string& part : parts) {
        if (!ParseDouble(part, &real) || real < 0.0) {
          return RejectUsage(StrCat("--rates wants non-negative numbers, "
                                    "got '", part, "'"));
        }
        serve.offered_rates_per_s.push_back(real);
      }
    } else if (TakeFlag(args, &i, "--trace-file", &value)) {
      if (!trace_path.empty()) {
        return RejectUsage("duplicate --trace-file (one trace per run)");
      }
      if (value.empty()) {
        return RejectUsage("--trace-file requires a path");
      }
      trace_path = value;
    } else if (TakeFlag(args, &i, "--queue-cadence-ms", &value)) {
      if (!ParseDouble(value, &real) || real < 0.0) {
        return RejectUsage(StrCat("--queue-cadence-ms wants a non-negative "
                                  "number, got '", value, "'"));
      }
      serve.trace_cadence_ms = real;
    } else if (TakeFlag(args, &i, "--policies", &value)) {
      std::vector<std::string> parts = SplitCommaList(value);
      if (parts.empty()) {
        return RejectUsage("--policies got an empty list");
      }
      serve.policies = std::move(parts);
    } else {
      // Everything else — unknown flags and positional words — is a
      // rejection: this CLI takes no positional arguments.
      return RejectUsage(StrCat("unknown argument: '", arg, "'"));
    }
  }
  if (list_policies) {
    for (const std::string& name : AdmissionCatalog()) {
      std::cout << name << "\n";
    }
    return 0;
  }

  // Validate policy names before paying for growth.
  for (const std::string& name : serve.policies) {
    if (auto probe = MakeAdmissionPolicy(name, serve.admission);
        !probe.ok()) {
      return RejectUsage(probe.status().message());
    }
  }

  TraceFile trace;
  if (const Status opened = trace.Open(trace_path); !opened.ok()) {
    return RejectUsage(opened.message());
  }
  serve.trace = trace.sink();

  const ExperimentScale scale = ScaleFromEnv();
  ScenarioOptions base;
  base.network_size = scale.target_size;
  base.seed = scale.seed;
  serve.seed = scale.seed;
  serve.threads = ThreadCountFromEnv();

  PrintBanner(base, serve);

  const auto grow_start = std::chrono::steady_clock::now();
  auto grown = GrowScenarioTopology(base);
  if (!grown.ok()) {
    std::cerr << "oscar_serve: grow: " << grown.status().message() << "\n";
    return 2;
  }
  const double grow_s = SecondsSince(grow_start);

  LoadGenerator generator(grown.value().snapshot, serve);
  const auto serve_start = std::chrono::steady_clock::now();
  auto run = generator.Run();
  if (!run.ok()) {
    std::cerr << "oscar_serve: " << run.status().message() << "\n";
    return 2;
  }
  const double serve_s = SecondsSince(serve_start);
  const ServeReport& report = run.value();

  if (const Status closed = trace.Close(); !closed.ok()) {
    std::cerr << "oscar_serve: trace: " << closed.message() << "\n";
    return 2;
  }

  PrintTables(report);
  // Wall-clock numbers stay off stdout: the summary's byte-identity
  // across OSCAR_THREADS is part of the CLI's contract.
  std::cerr << "# timing: grow=" << FormatDouble(grow_s, 2)
            << "s route=" << FormatDouble(report.route_wall_s, 2) << "s ("
            << FormatDouble(report.route_lookups_per_s, 0)
            << " lookups/s at OSCAR_THREADS=" << serve.threads
            << ") sweep=" << FormatDouble(serve_s - report.route_wall_s, 2)
            << "s\n";
  return 0;
}

}  // namespace
}  // namespace oscar

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return oscar::RunCli(args);
}
