// Ablation X6: network-size estimation.
//
// Oscar only consumes log2(N_hat) (the partition count), so even a
// crude protocol-level size estimate should barely move the results.
// This harness compares the oracle estimator against the Chord-style
// gap estimator — which is locally biased under skewed keys — at
// several gap windows.

#include <iostream>
#include <memory>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/simulation.h"
#include "overlay/oscar/oscar_overlay.h"

int main() {
  using namespace oscar;
  ExperimentScale scale = ScaleFromEnv();
  scale.target_size = std::min<size_t>(scale.target_size, 4000);
  scale.checkpoints.clear();
  bench::PrintHeader("X6 (ablation)",
                     "Oscar with oracle vs gap-based size estimation "
                     "(Gnutella keys, constant degree 27)",
                     scale);

  const auto keys = bench::Must(MakeKeyDistribution("gnutella"), "keys");
  const auto degrees =
      bench::Must(MakePaperDegreeDistribution("constant"), "degrees");

  TablePrinter table("size estimator vs routing quality");
  table.SetHeader({"estimator", "avg cost", "p95", "success"});
  std::vector<double> costs;
  struct Variant {
    std::string label;
    SizeEstimatorPtr estimator;
  };
  const std::vector<Variant> variants = {
      {"oracle", std::make_shared<OracleSizeEstimator>()},
      {"gap(w=4)", std::make_shared<GapSizeEstimator>(4)},
      {"gap(w=8)", std::make_shared<GapSizeEstimator>(8)},
      {"gap(w=16)", std::make_shared<GapSizeEstimator>(16)},
  };
  for (const Variant& variant : variants) {
    GrowthConfig config;
    config.target_size = scale.target_size;
    config.queries_per_checkpoint = scale.queries;
    config.seed = scale.seed;
    config.key_distribution = keys;
    config.degree_distribution = degrees;
    OscarOptions options;
    options.size_estimator = variant.estimator;
    config.overlay = std::make_shared<OscarOverlay>(options);
    Simulation sim(std::move(config));
    const auto grown = bench::Must(sim.Run(), "growth");
    const SearchEvaluation& eval = grown.checkpoints.back().search;
    costs.push_back(eval.avg_cost);
    table.AddRow({variant.label, FormatDouble(eval.avg_cost, 2),
                  FormatDouble(eval.p95_cost, 1),
                  FormatPercent(eval.success_rate, 1)});
  }
  table.Print(std::cout);

  double worst_gap = 0.0;
  for (size_t i = 1; i < costs.size(); ++i) {
    worst_gap = std::max(worst_gap, costs[i]);
  }
  bench::ShapeCheck(
      "protocol-level size estimation costs < 40% routing overhead "
      "(Oscar only needs log2 of the estimate)",
      worst_gap < 1.4 * costs[0]);
  return bench::ExitCode();
}
