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
// One FlagSet (common/flags.h) parses the flags and prints `--help`.
// Value flags take `--flag=value` or `--flag value`.
//
// Topology scale and seed come from the usual env knobs
// (OSCAR_BENCH_SCALE/SIZE/SEED); the route-phase worker count from
// OSCAR_THREADS. stdout is byte-identical across runs AND across
// OSCAR_THREADS for identical knobs — wall-clock throughput goes to
// stderr.
//
// Exit codes: 0 on success, 2 on a rejected invocation (with the usage
// on stderr) or an infrastructure error.

#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "common/audit.h"
#include "common/flags.h"
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
  FlagSet flags("oscar_serve");
  flags.Uint("--lookups", "N", 1, &serve.lookups);
  flags.Custom("--rates", "r1,r2,...", [&](const std::string& value) {
    std::vector<double> rates;
    for (const std::string& part : SplitCommaList(value)) {
      double rate = 0.0;
      if (!ParseDouble(part, &rate) || rate < 0.0) {
        return Status::Error(StrCat("--rates wants non-negative numbers, "
                                    "got '", part, "'"));
      }
      rates.push_back(rate);
    }
    if (rates.empty()) return Status::Error("--rates got an empty list");
    serve.offered_rates_per_s = std::move(rates);
    return Status::Ok();
  });
  flags.List("--policies", "p1,p2,...", FlagSet::Repeat::kReplace,
             &serve.policies);
  flags.Uint("--concurrency", "C", 1, &serve.concurrency);
  flags.Double("--burst", "B", FlagSet::Sign::kPositive, &serve.burst);
  flags.Double("--hop-ms", "MS", FlagSet::Sign::kPositive, &serve.hop_ms);
  flags.Uint("--hot-keys", "K", 0, &serve.hot_keys);
  flags.Double("--zipf", "S", FlagSet::Sign::kPositive, &serve.zipf_exponent);
  flags.Uint("--queue-cap", "Q", 1, &serve.admission.queue_capacity);
  flags.Double("--timeout-ms", "MS", FlagSet::Sign::kPositive,
               &serve.admission.timeout_ms);
  flags.Uint("--peer-cap", "K", 1, &serve.admission.per_peer_cap);
  flags.Path("--trace-file", "F.otrace", &trace_path);
  flags.Double("--queue-cadence-ms", "MS", FlagSet::Sign::kNonNegative,
               &serve.trace_cadence_ms);
  flags.Switch("--list-policies", &list_policies);
  std::string catalog = "policies:";
  for (const std::string& name : AdmissionCatalog()) catalog += " " + name;
  flags.Note(catalog);
  flags.Note("rates are offered lookups/s; 0 disables rate limiting "
             "(burst at t=0)");
  flags.Note("CSV trace rows: oscar_trace F.otrace --csv");
  const Status parsed = flags.Parse(args);
  if (!parsed.ok()) return flags.Reject(parsed.message());
  if (flags.help()) {
    std::cout << flags.Usage();
    return 0;
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
      return flags.Reject(probe.status().message());
    }
  }

  TraceFile trace;
  if (const Status opened = trace.Open(trace_path); !opened.ok()) {
    return flags.Reject(opened.message());
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
