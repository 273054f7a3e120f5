// Extension table X7: routing-load balance under skewed access.
//
// The paper's bandwidth story, measured end to end: skewed queries are
// routed over the grown overlay and every forwarded message is charged
// to the forwarding peer. Oscar's claim translates to (a) no hotspots
// (peak/mean bounded) and (b) traffic proportional to declared capacity
// under heterogeneous budgets (strong peers carry more — by choice).

#include <iostream>
#include <memory>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/simulation.h"
#include "metrics/routing_load_metrics.h"

int main() {
  using namespace oscar;
  ExperimentScale scale = ScaleFromEnv();
  scale.target_size = std::min<size_t>(scale.target_size, 4000);
  bench::PrintHeader("X7 (extension)",
                     "routing-load balance under skewed queries "
                     "(Gnutella keys)",
                     scale);

  auto keys = MakeKeyDistribution("gnutella");
  if (!keys.ok()) {
    std::cerr << keys.status() << "\n";
    return 2;
  }

  TablePrinter table("per-peer routing load over " +
                     StrCat(4 * scale.queries) + " skewed queries");
  table.SetHeader({"overlay", "degree-dist", "mean msgs", "peak/mean",
                   "budget-gini", "load~capacity corr"});
  double oscar_peak = 0, mercury_peak = 0, realistic_corr = 0;
  const std::vector<std::pair<std::string, OverlayFactory>> variants = {
      {"oscar", OscarFactory()},
      {"mercury", MercuryFactory()},
  };
  for (const auto& [name, factory] : variants) {
    for (const char* degrees : {"constant", "realistic"}) {
      auto degree_dist = MakePaperDegreeDistribution(degrees);
      if (!degree_dist.ok()) {
        std::cerr << degree_dist.status() << "\n";
        return 2;
      }
      GrowthConfig config;
      config.target_size = scale.target_size;
      config.queries_per_checkpoint = 1;  // Load measured separately.
      config.seed = scale.seed;
      config.key_distribution = keys.value();
      config.degree_distribution = degree_dist.value();
      config.overlay = factory();
      Simulation sim(std::move(config));
      auto run = sim.Run();
      if (!run.ok()) {
        std::cerr << "growth failed: " << run.status() << "\n";
        return 2;
      }
      RoutingLoadOptions options;
      options.num_queries = 4 * scale.queries;
      options.query_distribution = keys.value().get();
      Rng rng(scale.seed + 99);
      const RoutingLoadReport report = EvaluateRoutingLoad(
          sim.network(), Routing::kGreedy, options, &rng);
      table.AddRow({name, degrees, FormatDouble(report.mean_load, 1),
                    FormatDouble(report.peak_to_mean, 1),
                    FormatDouble(report.budget_relative_gini, 3),
                    FormatDouble(report.load_capacity_correlation, 3)});
      if (name == "oscar" && std::string(degrees) == "constant") {
        oscar_peak = report.peak_to_mean;
      }
      if (name == "mercury" && std::string(degrees) == "constant") {
        mercury_peak = report.peak_to_mean;
      }
      if (name == "oscar" && std::string(degrees) == "realistic") {
        realistic_corr = report.load_capacity_correlation;
      }
    }
  }
  table.Print(std::cout);

  bench::ShapeCheck("Oscar avoids hotspots better than Mercury",
                    oscar_peak < mercury_peak);
  bench::ShapeCheck(
      "under heterogeneous budgets, Oscar's traffic is capacity-"
      "proportional (corr > 0.3)",
      realistic_corr > 0.3);
  return bench::ExitCode();
}
