// Extension table X10: wall-clock latency.
//
// Hop counts priced in milliseconds: per-peer lognormal delays (median
// 25ms, heavy tail) and 500ms probe timeouts for dead links. Shows (a)
// Oscar's latency advantage over Mercury tracks its hop advantage, and
// (b) under churn the wasted-probe timeouts dominate the wall-clock
// penalty — motivating the maintenance loop of X8.

#include <iostream>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "churn/churn.h"
#include "core/simulation.h"
#include "sim/latency_model.h"

int main() {
  using namespace oscar;
  ExperimentScale scale = ScaleFromEnv();
  scale.target_size = std::min<size_t>(scale.target_size, 3000);
  scale.checkpoints.clear();
  bench::PrintHeader("X10 (extension)",
                     "query latency (ms): lognormal peer delays, 500ms "
                     "probe timeouts",
                     scale);

  auto keys = MakeKeyDistribution("gnutella");
  auto degrees = MakePaperDegreeDistribution("constant");
  if (!keys.ok() || !degrees.ok()) {
    std::cerr << "factory failure\n";
    return 2;
  }

  TablePrinter table("query latency");
  table.SetHeader({"overlay", "churn", "mean ms", "p50 ms", "p95 ms"});
  double oscar_mean = 0, mercury_mean = 0;
  double oscar_p95_healthy = 0, oscar_p95_churn = 0;
  for (const auto& [name, factory] :
       std::vector<std::pair<std::string, OverlayFactory>>{
           {"oscar", OscarFactory()}, {"mercury", MercuryFactory()}}) {
    GrowthConfig config;
    config.target_size = scale.target_size;
    config.queries_per_checkpoint = 1;
    config.seed = scale.seed;
    config.key_distribution = keys.value();
    config.degree_distribution = degrees.value();
    config.overlay = factory();
    Simulation sim(std::move(config));
    if (auto grown = sim.Run(); !grown.ok()) {
      std::cerr << "growth failed: " << grown.status() << "\n";
      return 2;
    }
    for (const double churn : {0.0, 0.33}) {
      Network net = sim.network();
      Rng rng(scale.seed + 21);
      if (churn > 0.0) {
        auto crashed = CrashFraction(&net, churn, &rng);
        if (!crashed.ok()) {
          std::cerr << crashed.status() << "\n";
          return 2;
        }
      }
      const LatencyEvaluation eval = EvaluateLatency(
          net, churn > 0.0 ? Routing::kBacktracking : Routing::kGreedy,
          scale.queries, &rng);
      table.AddRow({name, FormatPercent(churn, 0),
                    FormatDouble(eval.mean_ms, 0),
                    FormatDouble(eval.p50_ms, 0),
                    FormatDouble(eval.p95_ms, 0)});
      if (name == "oscar" && churn == 0.0) {
        oscar_mean = eval.mean_ms;
        oscar_p95_healthy = eval.p95_ms;
      }
      if (name == "oscar" && churn > 0.0) oscar_p95_churn = eval.p95_ms;
      if (name == "mercury" && churn == 0.0) mercury_mean = eval.mean_ms;
    }
  }
  table.Print(std::cout);

  bench::ShapeCheck("Oscar faster than Mercury in wall-clock too",
                    oscar_mean < mercury_mean);
  bench::ShapeCheck(
      "churn tail dominated by probe timeouts (p95 inflated >= 1.5x)",
      oscar_p95_churn > 1.5 * oscar_p95_healthy);
  return bench::ExitCode();
}
