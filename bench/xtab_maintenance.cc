// Extension table X8: maintenance rate under continuous churn.
//
// The paper rewires all peers periodically and calls churn handling
// orthogonal; a deployment amortizes repair. This harness runs a
// continuous leave/join process and sweeps the proactive maintenance
// fraction, reporting steady-state search cost, wasted traffic and the
// sampling bandwidth the maintenance consumes — the operational
// trade-off curve an operator would tune.

#include <iostream>
#include <memory>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/simulation.h"
#include "overlay/maintenance.h"
#include "overlay/oscar/oscar_overlay.h"

int main() {
  using namespace oscar;
  ExperimentScale scale = ScaleFromEnv();
  scale.target_size = std::min<size_t>(scale.target_size, 3000);
  bench::PrintHeader("X8 (extension)",
                     "maintenance-rate sweep under continuous churn "
                     "(2% leave+join per round, 12 rounds)",
                     scale);

  auto keys = MakeKeyDistribution("gnutella");
  auto degrees = MakePaperDegreeDistribution("constant");
  if (!keys.ok() || !degrees.ok()) {
    std::cerr << "factory failure\n";
    return 2;
  }

  TablePrinter table("steady-state quality vs proactive maintenance");
  table.SetHeader({"proactive", "avg cost", "avg wasted", "success",
                   "sampling msgs/round/peer"});
  std::vector<double> costs;
  for (const double fraction : {0.0, 0.02, 0.05, 0.10}) {
    // Grow once per variant (fresh overlay instance owns step counter).
    GrowthConfig config;
    config.target_size = scale.target_size;
    config.queries_per_checkpoint = 1;
    config.seed = scale.seed;
    config.key_distribution = keys.value();
    config.degree_distribution = degrees.value();
    auto overlay = std::make_shared<OscarOverlay>();
    config.overlay = overlay;
    Simulation sim(std::move(config));
    auto grown = sim.Run();
    if (!grown.ok()) {
      std::cerr << "growth failed: " << grown.status() << "\n";
      return 2;
    }
    Network net = sim.network();

    MaintenanceOptions options;
    options.proactive_fraction = fraction;
    Maintainer maintainer(overlay, options);
    Rng rng(scale.seed + 7);
    const size_t churn_per_round =
        std::max<size_t>(1, scale.target_size / 50);
    uint64_t sampling = 0;
    SearchEvaluation last_eval;
    for (int round = 0; round < 12; ++round) {
      RollingChurnOptions churn;
      churn.leaves_per_round = churn_per_round;
      churn.joins_per_round = churn_per_round;
      churn.rounds = 1;
      auto churn_result = RollingChurn(
          &net, churn, *keys.value(), *degrees.value(),
          [&](Network* n, PeerId id, Rng* r) {
            return overlay->BuildLinks(n, id, r);
          },
          &rng);
      if (!churn_result.ok()) {
        std::cerr << churn_result.status() << "\n";
        return 2;
      }
      auto report = maintainer.RunRound(&net, &rng);
      if (!report.ok()) {
        std::cerr << report.status() << "\n";
        return 2;
      }
      sampling += report.value().sampling_steps;
      SearchOptions search;
      search.num_queries = scale.queries / 2;
      search.query_distribution = keys.value().get();
      last_eval = EvaluateSearch(net, Routing::kBacktracking, search, &rng);
    }
    costs.push_back(last_eval.avg_cost);
    table.AddRow(
        {FormatPercent(fraction, 0), FormatDouble(last_eval.avg_cost, 2),
         FormatDouble(last_eval.avg_wasted, 2),
         FormatPercent(last_eval.success_rate, 1),
         FormatDouble(static_cast<double>(sampling) / 12.0 /
                          static_cast<double>(scale.target_size),
                      0)});
  }
  table.Print(std::cout);

  bench::ShapeCheck(
      "lazy repair alone keeps the network navigable at low cost",
      costs[0] < 20.0);
  bench::ShapeCheck(
      "proactive refresh does not degrade quality (within 20%)",
      costs.back() < costs[0] * 1.2);
  return bench::ExitCode();
}
