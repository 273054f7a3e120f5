// Figure 1(c): Oscar's average search cost vs network size under three
// in-degree distributions (constant / "realistic" / "stepped"), peer
// keys from the Gnutella distribution, fault-free networks.
//
// Paper result: the three curves are nearly identical (Oscar adapts to
// any in-degree distribution without loss of search performance), flat
// in the 5-15 hop band across 2000..10000 peers.

#include <cmath>
#include <iostream>

#include "bench_util.h"

int main() {
  using namespace oscar;
  const ExperimentScale scale = ScaleFromEnv();
  bench::PrintHeader("Fig 1(c)",
                     "Oscar avg search cost vs size, three in-degree "
                     "distributions (Gnutella keys)",
                     scale);

  const std::vector<SearchCostRow> rows = bench::Must(
      RunSearchCostVsSize(scale, {"constant", "realistic", "stepped"},
                          {0.0}, OscarFactory()),
      "search cost");
  bench::PrintSearchCostTable("average search cost (hops)", rows);

  // Shape checks.
  bool all_succeed = true;
  double final_min = 1e18, final_max = 0.0, overall_max = 0.0;
  const size_t final_size = scale.target_size;
  for (const SearchCostRow& row : rows) {
    all_succeed &= row.success_rate == 1.0;
    overall_max = std::max(overall_max, row.avg_cost);
    if (row.network_size == final_size) {
      final_min = std::min(final_min, row.avg_cost);
      final_max = std::max(final_max, row.avg_cost);
    }
  }
  bench::ShapeCheck("all queries succeed (fault-free)", all_succeed);
  bench::ShapeCheck(
      "three distributions nearly identical at final size (<35% spread)",
      final_max / final_min < 1.35);
  bench::ShapeCheck(
      "search cost stays in the paper's 0..15 hop band",
      overall_max < 15.0);
  return bench::ExitCode();
}
