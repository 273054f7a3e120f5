// Ablation X4: out-degree budget sweep.
//
// "The number of long-range links in Oscar is not restricted and can be
// assigned individually according to the needs of a particular peer, as
// long as there exists at least one such link per peer. It can be
// proven e.g. that in the worst case the search in Oscar network will
// be O(log^2 N)." This harness sweeps the uniform out-degree budget
// from 1 (the worst case) upward and reports average search cost; with
// 1 link/peer the cost band should be consistent with c*log^2 N, and it
// should fall roughly like 1/budget toward the log N regime.

#include <cmath>
#include <iostream>
#include <memory>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/simulation.h"
#include "degree/constant_degree.h"
#include "overlay/oscar/oscar_overlay.h"

int main() {
  using namespace oscar;
  ExperimentScale scale = ScaleFromEnv();
  scale.target_size = std::min<size_t>(scale.target_size, 4000);
  bench::PrintHeader("X4 (ablation)",
                     "Oscar out-degree budget sweep (Gnutella keys)",
                     scale);

  const auto keys = bench::Must(MakeKeyDistribution("gnutella"), "keys");
  const double log_n = std::log2(static_cast<double>(scale.target_size));

  TablePrinter table("avg search cost vs out-degree budget");
  table.SetHeader({"links/peer", "avg cost", "p95 cost", "cost/log2(N)",
                   "cost/log2^2(N)"});
  std::vector<double> costs;
  for (uint32_t budget : {1u, 2u, 4u, 8u, 16u, 27u}) {
    GrowthConfig config;
    config.target_size = scale.target_size;
    config.queries_per_checkpoint = scale.queries;
    config.seed = scale.seed;
    config.key_distribution = keys;
    // In-cap: allow some slack at budget 1.
    config.degree_distribution = std::make_shared<ConstantDegreeDistribution>(
        bench::Must(ConstantDegreeDistribution::Make(std::max(budget, 2u),
                                                     budget),
                    "degrees"));
    config.overlay = std::make_shared<OscarOverlay>();
    Simulation sim(std::move(config));
    const auto grown = bench::Must(sim.Run(), "growth");
    const SearchEvaluation& eval = grown.checkpoints.back().search;
    costs.push_back(eval.avg_cost);
    table.AddRow({StrCat(budget), FormatDouble(eval.avg_cost, 2),
                  FormatDouble(eval.p95_cost, 1),
                  FormatDouble(eval.avg_cost / log_n, 2),
                  FormatDouble(eval.avg_cost / (log_n * log_n), 3)});
  }
  table.Print(std::cout);

  bench::ShapeCheck("cost decreases with the link budget",
                    costs.front() > costs.back());
  bench::ShapeCheck(
      "1 link/peer stays within the O(log^2 N) worst-case band (c<=2)",
      costs.front() <= 2.0 * log_n * log_n);
  bench::ShapeCheck(
      "paper budget (27) reaches the O(log N) regime (c<=1.5)",
      costs.back() <= 1.5 * log_n);
  return bench::ExitCode();
}
