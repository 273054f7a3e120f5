// Ablation X2: median sample size.
//
// The paper claims the sampling technique "yields very good results in
// practice even with very low sample sizes" and costs only O(log N)
// medians. This harness sweeps the per-median sample size and reports
// search cost + the total sampling message cost of construction.

#include <iostream>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"

int main() {
  using namespace oscar;
  ExperimentScale scale = ScaleFromEnv();
  scale.target_size = std::min<size_t>(scale.target_size, 4000);
  scale.checkpoints.clear();
  bench::PrintHeader("X2 (ablation)",
                     "Oscar median sample-size sweep (Gnutella keys, "
                     "constant degree 27)",
                     scale);

  const std::vector<uint32_t> sample_sizes = {3, 5, 9, 17, 33};
  TablePrinter table("per-median sample size vs quality and cost");
  table.SetHeader({"samples/median", "avg search cost", "success",
                   "walk steps/peer"});
  std::vector<double> costs;
  for (uint32_t s : sample_sizes) {
    const ComparisonRow row =
        bench::Must(RunOverlayComparison(
                        scale, {{StrCat("oscar-s", s), OscarWithSampleSize(s)}},
                        {"gnutella"}),
                    "overlay comparison")
            .front();
    costs.push_back(row.avg_cost);
    table.AddRow({StrCat(s), FormatDouble(row.avg_cost, 2),
                  FormatPercent(row.success_rate, 1),
                  FormatDouble(static_cast<double>(row.sampling_steps) /
                                   static_cast<double>(row.network_size),
                               0)});
  }
  table.Print(std::cout);

  bench::ShapeCheck(
      "tiny samples (3/median) already route within 1.6x of the largest",
      costs.front() < 1.6 * costs.back());
  bench::ShapeCheck("quality non-degrading as samples grow (monotone-ish)",
                    costs.back() <= costs.front() * 1.1);
  return bench::ExitCode();
}
