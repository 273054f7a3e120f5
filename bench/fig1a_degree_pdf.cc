// Figure 1(a): the synthetic spiky node-degree distribution.
//
// Regenerates the pdf the paper plots (log-log: node-degree pdf over
// number of neighbors per peer) both analytically (the distribution's
// exact pmf) and empirically (a large sample), and verifies the shape
// properties: spikes at client defaults, heavy tail, mean exactly 27.

#include <iostream>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "degree/spiky_degree.h"

int main() {
  using namespace oscar;
  const ExperimentScale scale = ScaleFromEnv();
  bench::PrintHeader(
      "Fig 1(a)", "synthetic spiky node-degree pdf ('realistic' case)",
      scale);

  const auto dist = SpikyDegreeDistribution::Paper();
  const auto pmf = dist.Pmf();

  // Empirical check of the analytic pmf.
  Rng rng(scale.seed);
  std::vector<double> empirical(129, 0.0);
  const int trials = 500000;
  for (int i = 0; i < trials; ++i) {
    ++empirical[dist.Sample(&rng).max_in];
  }

  TablePrinter table("node degree pdf (only bins with mass >= 1e-4)");
  table.SetHeader({"degree", "pmf", "empirical", "note"});
  for (const auto& [degree, p] : pmf) {
    if (p < 1e-4) continue;
    std::string note;
    for (uint32_t spike : {10u, 20u, 27u, 30u, 32u, 50u, 64u, 100u}) {
      if (degree == spike) note = "spike";
    }
    table.AddRow({StrCat(degree), FormatDouble(p, 5),
                  FormatDouble(empirical[degree] / trials, 5), note});
  }
  table.Print(std::cout);

  double mean = 0.0, tail_mass = 0.0;
  double p27 = 0, p26 = 0, p28 = 0;
  for (const auto& [degree, p] : pmf) {
    mean += p * degree;
    if (degree > 64) tail_mass += p;
    if (degree == 26) p26 = p;
    if (degree == 27) p27 = p;
    if (degree == 28) p28 = p;
  }
  std::cout << "mean degree = " << FormatDouble(mean, 4)
            << " (paper: 27)\n";

  bench::ShapeCheck("mean degree == 27 (+-0.01)",
                    std::abs(mean - 27.0) < 0.01);
  bench::ShapeCheck("spike at 27 dominates neighbors 26/28",
                    p27 > 3 * p26 && p27 > 3 * p28);
  bench::ShapeCheck("heavy tail beyond degree 64", tail_mass > 1e-3);
  return bench::ExitCode();
}
