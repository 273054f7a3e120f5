// Figure 2(a)+(b): Oscar under churn.
//
// Networks grown under the Gnutella key distribution with (a) constant
// and (b) "realistic" in-degree distributions; at each checkpoint a
// snapshot is crashed at 0% / 10% / 33% and queried with the fault-
// aware backtracking router. Paper result: Oscar remains navigable and
// search cost stays fairly low (within the 0..50 band of the figure),
// ordered no-faults < 10% < 33%.

#include <iostream>
#include <map>

#include "bench_util.h"

int main() {
  using namespace oscar;
  const ExperimentScale scale = ScaleFromEnv();
  bench::PrintHeader("Fig 2(a)+(b)",
                     "Oscar search cost under churn (0/10/33% crashes), "
                     "constant & 'realistic' in-degree distributions",
                     scale);

  const std::vector<SearchCostRow> rows = bench::Must(
      RunSearchCostVsSize(scale, {"constant", "realistic"},
                          {0.0, 0.10, 0.33}, OscarFactory()),
      "search cost");

  for (const char* series : {"constant", "realistic"}) {
    std::vector<SearchCostRow> subset;
    for (const SearchCostRow& row : rows) {
      if (row.series == series) subset.push_back(row);
    }
    bench::PrintSearchCostTable(
        std::string("Fig 2: churn simulation, ") + series +
            " in-degree (avg search cost incl. wasted traffic)",
        subset);
  }

  // Shape checks at the final size, per series.
  bool ordering = true, navigable = true, bounded = true;
  for (const char* series : {"constant", "realistic"}) {
    std::map<double, double> final_cost;
    for (const SearchCostRow& row : rows) {
      navigable &= row.success_rate == 1.0;
      if (row.series == series && row.network_size == scale.target_size) {
        final_cost[row.churn_fraction] = row.avg_cost;
      }
    }
    ordering &= final_cost[0.0] < final_cost[0.10];
    ordering &= final_cost[0.10] < final_cost[0.33];
    bounded &= final_cost[0.33] < 50.0;
  }
  bench::ShapeCheck("network remains navigable (100% success)",
                    navigable);
  bench::ShapeCheck("cost ordering: none < 10% < 33% crashes", ordering);
  bench::ShapeCheck("33%-crash cost stays in the figure's 0..50 band",
                    bounded);
  return bench::ExitCode();
}
