// Ablation X3: the power-of-two-choices in-degree balancing.
//
// The paper: "Since Oscar is truly randomized approach we could employ
// the 'power of two' technique which allowed us to better load-balance
// the in-degree distribution." This harness toggles P2C and reports the
// utilization, saturation and Gini of the in-degree load under the
// heterogeneous ("realistic") degree distribution.

#include <iostream>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "metrics/degree_metrics.h"

int main() {
  using namespace oscar;
  ExperimentScale scale = ScaleFromEnv();
  scale.target_size = std::min<size_t>(scale.target_size, 4000);
  scale.checkpoints.clear();
  bench::PrintHeader("X3 (ablation)",
                     "power-of-two-choices on/off: in-degree balance "
                     "(Gnutella keys)",
                     scale);

  TablePrinter table("in-degree load balance with and without P2C");
  table.SetHeader({"variant", "degree-dist", "utilization", "saturated",
                   "gini", "p10-load", "p90-load"});
  double gini_with = 0, gini_without = 0;
  double util_with = 0, util_without = 0;
  for (const bool p2c : {true, false}) {
    const OverlayFactory factory =
        p2c ? OscarFactory() : OscarNoP2cFactory();
    for (const char* degrees : {"constant", "realistic"}) {
      const DegreeLoadRow row =
          bench::Must(RunDegreeLoad(scale, {degrees}, factory,
                                    p2c ? "oscar+p2c" : "oscar-no-p2c"),
                      "degree load")
              .front();
      const auto& curve = row.report.sorted_relative_load;
      table.AddRow(
          {row.overlay_name, row.degree_name,
           FormatPercent(row.report.utilization),
           FormatPercent(row.report.saturated_fraction),
           FormatDouble(row.report.load_gini, 3),
           FormatDouble(curve[curve.size() / 10], 3),
           FormatDouble(curve[curve.size() * 9 / 10], 3)});
      if (std::string(degrees) == "realistic") {
        (p2c ? gini_with : gini_without) = row.report.load_gini;
        (p2c ? util_with : util_without) = row.report.utilization;
      }
    }
  }
  table.Print(std::cout);

  bench::ShapeCheck("P2C reduces load imbalance (lower Gini)",
                    gini_with < gini_without);
  bench::ShapeCheck("P2C does not sacrifice utilization (>= -2pp)",
                    util_with >= util_without - 0.02);
  return bench::ExitCode();
}
