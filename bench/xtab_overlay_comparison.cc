// Extension table X1: overlay comparison across key distributions.
//
// Quantifies the comparison the paper inherits from [8] ("Oscar ...
// significantly outperforms Mercury") plus two reference points: plain
// Chord (uniform-assumption baseline; collapses on skew) and oracle
// Kleinberg (full-knowledge upper bound Oscar approximates).

#include <iostream>
#include <map>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"

int main() {
  using namespace oscar;
  ExperimentScale scale = ScaleFromEnv();
  // A single-size comparison; the growth phase dominates wall time, so
  // cap this extension table at 4000 peers even at paper scale.
  scale.target_size = std::min<size_t>(scale.target_size, 4000);
  scale.checkpoints.clear();
  bench::PrintHeader("X1 (extension)",
                     "overlay comparison: avg search cost / utilization "
                     "across key distributions (constant degree 27)",
                     scale);

  const std::vector<ComparisonRow> rows = bench::Must(
      RunOverlayComparison(scale,
                           {{"oscar", OscarFactory()},
                            {"mercury", MercuryFactory()},
                            {"chord", ChordFactory()},
                            {"kleinberg-oracle", KleinbergFactory()}},
                           {"uniform", "gnutella", "clustered"}),
      "overlay comparison");

  TablePrinter table("avg search cost (hops) | degree-volume utilization");
  table.SetHeader({"overlay", "uniform", "gnutella", "clustered"});
  std::map<std::string, std::map<std::string, const ComparisonRow*>> cell;
  std::vector<std::string> overlay_order;
  for (const ComparisonRow& row : rows) {
    if (cell.find(row.overlay_name) == cell.end()) {
      overlay_order.push_back(row.overlay_name);
    }
    cell[row.overlay_name][row.key_name] = &row;
  }
  for (const std::string& overlay : overlay_order) {
    std::vector<std::string> out = {overlay};
    for (const char* keys : {"uniform", "gnutella", "clustered"}) {
      const ComparisonRow* r = cell[overlay][keys];
      out.push_back(StrCat(FormatDouble(r->avg_cost, 2), " | ",
                           FormatPercent(r->utilization, 0)));
    }
    table.AddRow(std::move(out));
  }
  table.Print(std::cout);

  auto cost = [&](const std::string& overlay, const std::string& keys) {
    return cell[overlay][keys]->avg_cost;
  };
  bench::ShapeCheck("Oscar beats Mercury on gnutella keys",
                    cost("oscar", "gnutella") <
                        cost("mercury", "gnutella"));
  bench::ShapeCheck("Oscar beats Mercury on clustered keys",
                    cost("oscar", "clustered") <
                        cost("mercury", "clustered"));
  bench::ShapeCheck(
      "Chord collapses on clustered keys (>3x Oscar)",
      cost("chord", "clustered") > 3.0 * cost("oscar", "clustered"));
  bench::ShapeCheck(
      "Oscar within 2x of the oracle-Kleinberg bound on gnutella",
      cost("oscar", "gnutella") <
          2.0 * cost("kleinberg-oracle", "gnutella"));
  bench::ShapeCheck(
      "Oscar skew-insensitive (gnutella within 1.5x of uniform)",
      cost("oscar", "gnutella") < 1.5 * cost("oscar", "uniform"));
  return bench::ExitCode();
}
