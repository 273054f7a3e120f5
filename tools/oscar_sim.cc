// Scenario runner for the discrete-event message-level simulator.
//
//   oscar_sim                     run every cataloged scenario
//   oscar_sim flash-crowd ...     run the named scenario(s)
//   oscar_sim --scenarios a,b,c   same, comma-separated (repeats
//                                 accumulate, like bare names)
//   oscar_sim --list              print the catalog
//   oscar_sim --trace-file F      stream the event trace to F, which
//                                 must end in `.otrace` (binary
//                                 columnar; `oscar_trace F --csv`
//                                 decodes it to CSV rows)
//   oscar_sim --queue-cadence-ms N  queue-depth/in-flight timeline
//                                 sample cadence in virtual ms while
//                                 tracing (default 10, 0 disables)
//   oscar_sim --maintenance-cadence-ms N  run Maintainer::RunRound
//                                 against the live network every N
//                                 virtual ms mid-scenario (0 forces
//                                 repair off; unset lets each scenario
//                                 pick — hostile ones default it on)
//   oscar_sim --fault-plan SPEC   inject extra faults in virtual time,
//                                 e.g. 'crash@80:0.2,0.1;partition@
//                                 100+300:0.0,0.25,0.5,0.25,0.9;slow@
//                                 200+150:0.6,0.2,25' (see
//                                 sim/fault_plan.h for the grammar);
//                                 added on top of the scenario's own plan
//   oscar_sim --cross-check       verify the message engine reproduces
//                                 the synchronous engine's per-query hop
//                                 counts (zero latency, one in flight)
//
// The network is grown ONCE per (seed, size, overlay) and frozen as a
// TopologySnapshot; every requested scenario replays against a cheap
// restore of that snapshot instead of regrowing. The grow-vs-run wall
// time split is reported on stderr (stdout stays byte-identical across
// runs with identical knobs; only stderr carries timing).
//
// One FlagSet (common/flags.h) parses the flags and prints `--help`.
// Value flags take `--flag=value` or `--flag value`.
//
// Scale and seed come from the same environment knobs the bench
// harnesses use (see ScaleFromEnv): OSCAR_BENCH_SCALE=small|paper,
// OSCAR_BENCH_SIZE, OSCAR_BENCH_QUERIES (lookups), OSCAR_BENCH_SEED.
// Output follows the harness conventions — `#`-prefixed banner, aligned
// tables.
//
// Exit codes: 0 on success, 1 on a failed cross-check, 2 on a rejected
// invocation (with the usage on stderr) or an experiment Status error.

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "common/audit.h"
#include "common/flags.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/experiments.h"
#include "sim/scenario.h"
#include "trace/trace_file.h"

namespace oscar {
namespace {

void PrintBanner(const ExperimentScale& scale) {
  std::cout << "###############################################\n"
            << "# oscar_sim\n"
            << "# Discrete-event message-level scenario runner\n"
            << "# scale: target_size=" << scale.target_size
            << " queries=" << scale.queries << " seed=" << scale.seed
            << " (OSCAR_BENCH_SCALE=small|paper)\n"
            << "###############################################\n";
}

int RunCli(const std::vector<std::string>& args) {
  // Runtime invariant audits (common/audit.h): growth checkpoints,
  // scenario freezes, and delta restores all self-check under
  // OSCAR_AUDIT=1. Stderr only — stdout stays byte-deterministic.
  if (AuditEnabled()) {
    std::cerr << "oscar_sim: OSCAR_AUDIT=1 — runtime invariant audits on\n";
  }
  bool list = false;
  bool cross_check = false;
  std::string trace_path;
  double queue_cadence_ms = 10.0;
  double maintenance_cadence_ms = -1.0;  // < 0: scenario decides.
  FaultPlan extra_faults;
  // Bare names and --scenarios lists accumulate in argument order.
  std::vector<std::string> names;
  FlagSet flags("oscar_sim");
  flags.Switch("--list", &list);
  flags.Switch("--cross-check", &cross_check);
  flags.List("--scenarios", "a,b,c", FlagSet::Repeat::kAccumulate, &names);
  flags.Path("--trace-file", "out.otrace", &trace_path);
  flags.Double("--queue-cadence-ms", "N", FlagSet::Sign::kNonNegative,
               &queue_cadence_ms);
  flags.Double("--maintenance-cadence-ms", "N", FlagSet::Sign::kNonNegative,
               &maintenance_cadence_ms);
  flags.Custom("--fault-plan", "SPEC", [&](const std::string& value) {
    auto parsed = ParseFaultPlan(value);
    if (!parsed.ok()) return parsed.status();
    // Repeats accumulate, like the scenario list.
    for (FaultSpec& spec : parsed.value().faults) {
      extra_faults.faults.push_back(std::move(spec));
    }
    return Status::Ok();
  });
  flags.Positional("[scenario ...]", &names);
  flags.Note("CSV trace rows: oscar_trace F.otrace --csv");
  std::string catalog = "scenarios:";
  for (const std::string& name : ScenarioCatalog()) catalog += " " + name;
  flags.Note(catalog);
  const Status parsed = flags.Parse(args);
  if (!parsed.ok()) return flags.Reject(parsed.message());
  if (flags.help()) {
    std::cout << flags.Usage();
    return 0;
  }

  const ExperimentScale scale = ScaleFromEnv();
  ScenarioOptions base;
  base.network_size = scale.target_size;
  base.lookups = scale.queries;
  base.seed = scale.seed;
  base.maintenance_cadence_ms = maintenance_cadence_ms;
  base.faults = extra_faults;

  if (list) {
    for (const std::string& name : ScenarioCatalog()) {
      std::cout << name << "\n";
    }
    return 0;
  }

  if (!cross_check && names.empty()) names = ScenarioCatalog();

  // Validate names and open the trace before the banner and growth, so
  // a rejection prints only the usage — every name, not just the first
  // bad one's predecessors, so `valid,bogus` still exits 2.
  for (const std::string& name : names) {
    if (auto probe = MakeScenarioOptions(name, base); !probe.ok()) {
      return flags.Reject(probe.status().message());
    }
  }

  TraceFile trace;
  if (const Status opened = trace.Open(trace_path); !opened.ok()) {
    return flags.Reject(opened.message());
  }

  PrintBanner(scale);

  // One grow per (seed, size, overlay), shared by the cross-check and
  // every scenario run (each replays a restore of the frozen snapshot).
  const auto grow_start = std::chrono::steady_clock::now();
  auto grown = GrowScenarioTopology(base);
  if (!grown.ok()) {
    std::cerr << "oscar_sim: grow: " << grown.status().message() << "\n";
    return 2;
  }
  const double grow_s = SecondsSince(grow_start);

  if (cross_check) {
    auto checked = CrossCheckMessageVsSync(base, grown.value());
    if (!checked.ok()) {
      std::cout << "# cross-check: message-level vs synchronous ... "
                << "MISMATCH (" << checked.status().message() << ")\n";
      return 1;
    }
    std::cout << "# cross-check: message-level vs synchronous hop counts"
              << " over " << checked.value() << " queries ... OK\n";
    if (names.empty()) return 0;
  }

  TablePrinter table("scenario runs (message-level engine)");
  table.SetHeader({"scenario", "n", "lookups", "done", "ok%", "p50_ms",
                   "p95_ms", "hops", "wasted", "msgs", "timeout", "retry",
                   "peak_ifl", "load_p2m", "gini", "crash", "join"});
  // Recovery per injected fault: windowed success just before the
  // injection, the worst window after it, the final window, and the
  // virtual ms until the rate re-crossed threshold×ok_before (0 = never
  // dipped, `never` = never came back). Printed only when faults fired.
  TablePrinter recovery_table("recovery (per injected fault)");
  recovery_table.SetHeader({"scenario", "fault", "at_ms", "heal_ms",
                            "crashed", "ok_before%", "dip%", "ok_after%",
                            "ttr_ms", "hops_b", "hops_a"});
  bool any_recovery = false;
  // Repair traffic per scenario, aggregated over its maintenance
  // rounds. Printed only when rounds ran.
  TablePrinter maintenance_table("maintenance rounds (virtual-time repair)");
  maintenance_table.SetHeader({"scenario", "rounds", "pruned", "rebuilt",
                               "refreshed", "samp_steps", "exhausted"});
  bool any_maintenance = false;
  const auto run_start = std::chrono::steady_clock::now();
  // One scratch network recycled across scenario replays: each
  // RunScenarioOn delta-restores it (repairing only what the previous
  // scenario's churn touched) instead of rebuilding all N peer rows.
  Network scratch;
  for (const std::string& name : names) {
    ScenarioOptions options = base;
    if (TraceSink* sink = trace.sink(); sink != nullptr) {
      sink->SetScope(sink->Intern(name));
      options.sim.sink = sink;
      options.sim.queue_depth_cadence_ms = queue_cadence_ms;
    }
    auto run = RunScenarioOn(name, options, grown.value(), &scratch);
    if (!run.ok()) {
      std::cerr << "oscar_sim: " << name << ": " << run.status().message()
                << "\n";
      return 2;
    }
    const ScenarioResult& result = run.value();
    const MessageSimReport& report = result.report;
    table.AddRow({
        name,
        StrCat(result.options.network_size),
        StrCat(report.submitted),
        StrCat(report.completed),
        FormatDouble(report.success_rate * 100.0, 1),
        FormatDouble(report.latency.p50_ms, 1),
        FormatDouble(report.latency.p95_ms, 1),
        FormatDouble(report.mean_hops, 2),
        FormatDouble(report.mean_wasted, 2),
        StrCat(report.messages_sent),
        StrCat(report.timeouts),
        StrCat(report.retries),
        StrCat(report.peak_in_flight),
        FormatDouble(report.peer_load.peak_to_mean, 1),
        FormatDouble(report.peer_load.gini, 3),
        StrCat(result.crashed),
        StrCat(result.joined),
    });
    for (const FaultRecovery& rec : result.recovery.faults) {
      any_recovery = true;
      recovery_table.AddRow({
          name,
          rec.label,
          FormatDouble(rec.at_ms, 0),
          rec.heal_ms < 0.0 ? "-" : FormatDouble(rec.heal_ms, 0),
          StrCat(rec.crashed),
          FormatDouble(rec.ok_before * 100.0, 1),
          FormatDouble(rec.dip * 100.0, 1),
          FormatDouble(rec.ok_after * 100.0, 1),
          rec.ttr_ms < 0.0 ? "never" : FormatDouble(rec.ttr_ms, 1),
          FormatDouble(rec.hops_before, 2),
          FormatDouble(rec.hops_after, 2),
      });
    }
    if (!result.maintenance.empty()) {
      any_maintenance = true;
      size_t pruned = 0;
      size_t rebuilt = 0;
      size_t refreshed = 0;
      for (const MaintenanceRoundRecord& round : result.maintenance) {
        pruned += round.report.pruned_links;
        rebuilt += round.report.rebuilt_peers;
        refreshed += round.report.refreshed_peers;
      }
      maintenance_table.AddRow({
          name,
          StrCat(result.maintenance.size()),
          StrCat(pruned),
          StrCat(rebuilt),
          StrCat(refreshed),
          StrCat(result.maintenance_sampling_steps),
          // Rounds have no sampling cap, so none is ever exhausted; the
          // column stays so the table's layout does not change.
          "0",
      });
    }
  }
  const double run_s = SecondsSince(run_start);
  if (const Status closed = trace.Close(); !closed.ok()) {
    std::cerr << "oscar_sim: trace: " << closed.message() << "\n";
    return 2;
  }
  table.Print(std::cout);
  if (any_recovery) recovery_table.Print(std::cout);
  if (any_maintenance) maintenance_table.Print(std::cout);
  std::cerr << "# timing: grow=" << FormatDouble(grow_s, 2) << "s (1 grow, "
            << names.size() << " scenario run"
            << (names.size() == 1 ? "" : "s") << ") run="
            << FormatDouble(run_s, 2) << "s\n";
  return 0;
}

}  // namespace
}  // namespace oscar

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  return oscar::RunCli(args);
}
