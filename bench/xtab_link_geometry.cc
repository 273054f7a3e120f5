// Extension table X5: link geometry (harmonic-octave analysis).
//
// Kleinberg navigability requires link probability ~1/rank, i.e. a
// FLAT histogram of links over rank octaves [2^i, 2^{i+1}). This
// harness prints that histogram for each overlay on uniform vs skewed
// keys, making the paper's central argument directly visible: Oscar's
// sampled-median construction stays flat on any key distribution;
// Mercury's and Chord's geometry warps exactly where their key-space
// assumptions break.

#include <iostream>
#include <memory>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "core/simulation.h"
#include "metrics/topology_metrics.h"

int main() {
  using namespace oscar;
  ExperimentScale scale = ScaleFromEnv();
  scale.target_size = std::min<size_t>(scale.target_size, 4000);
  bench::PrintHeader("X5 (extension)",
                     "long-link rank-octave histograms per overlay "
                     "(flat == navigable small world)",
                     scale);

  const auto degrees =
      bench::Must(MakePaperDegreeDistribution("constant"), "degrees");

  struct Cell {
    std::string overlay;
    std::string keys;
    LinkGeometryReport report;
  };
  std::vector<Cell> cells;
  const std::vector<std::pair<std::string, OverlayFactory>> overlays = {
      {"oscar", OscarFactory()},
      {"mercury", MercuryFactory()},
      {"chord", ChordFactory()},
      {"kleinberg-oracle", KleinbergFactory()},
  };
  for (const auto& [name, factory] : overlays) {
    for (const char* key_name : {"uniform", "gnutella"}) {
      GrowthConfig config;
      config.target_size = scale.target_size;
      config.queries_per_checkpoint = 1;  // Geometry only.
      config.seed = scale.seed;
      config.key_distribution =
          bench::Must(MakeKeyDistribution(key_name), "keys");
      config.degree_distribution = degrees;
      config.overlay = factory();
      Simulation sim(std::move(config));
      bench::Must(sim.Run(), "growth");
      cells.push_back(
          Cell{name, key_name, ComputeLinkGeometry(sim.network())});
    }
  }

  TablePrinter table("share of long links per rank octave (%)");
  std::vector<std::string> header = {"overlay/keys"};
  const size_t octaves = cells.front().report.octave_counts.size();
  for (size_t i = 0; i < octaves; ++i) {
    header.push_back(StrCat("2^", i));
  }
  header.push_back("imbal");
  table.SetHeader(std::move(header));
  for (const Cell& cell : cells) {
    std::vector<std::string> row = {cell.overlay + "/" + cell.keys};
    for (uint64_t c : cell.report.octave_counts) {
      row.push_back(FormatDouble(
          100.0 * static_cast<double>(c) /
              static_cast<double>(cell.report.total_links),
          1));
    }
    row.push_back(FormatDouble(cell.report.octave_imbalance, 1));
    table.AddRow(std::move(row));
  }
  table.Print(std::cout);

  auto imbalance = [&](const std::string& overlay,
                       const std::string& keys) {
    for (const Cell& cell : cells) {
      if (cell.overlay == overlay && cell.keys == keys) {
        return cell.report.octave_imbalance;
      }
    }
    return -1.0;
  };
  bench::ShapeCheck("Oscar flat on gnutella keys (imbalance < 2.5)",
                    imbalance("oscar", "gnutella") < 2.5);
  bench::ShapeCheck(
      "Oscar as flat as the oracle construction (within 1.8x)",
      imbalance("oscar", "gnutella") <
          1.8 * imbalance("kleinberg-oracle", "gnutella"));
  bench::ShapeCheck(
      "Mercury warps on gnutella keys (worse than Oscar)",
      imbalance("mercury", "gnutella") > imbalance("oscar", "gnutella"));
  bench::ShapeCheck(
      "Chord warps on gnutella keys (worse than Oscar)",
      imbalance("chord", "gnutella") > imbalance("oscar", "gnutella"));
  return bench::ExitCode();
}
