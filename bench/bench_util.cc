#include "bench_util.h"

#include <cstdlib>
#include <iostream>
#include <map>
#include <set>

#include "common/string_util.h"
#include "common/table_printer.h"

namespace oscar::bench {

namespace {
bool g_all_checks_passed = true;
}  // namespace

void PrintHeader(const std::string& figure, const std::string& summary,
                 const ExperimentScale& scale) {
  std::cout << "###############################################\n"
            << "# " << figure << "\n"
            << "# " << summary << "\n"
            << "# scale: target_size=" << scale.target_size
            << " queries=" << scale.queries << " seed=" << scale.seed
            << " (OSCAR_BENCH_SCALE=small|paper)\n"
            << "###############################################\n";
}

void ShapeCheck(const std::string& claim, bool holds) {
  if (!holds) g_all_checks_passed = false;
  std::cout << "# shape-check: " << claim << " ... "
            << (holds ? "OK" : "VIOLATED") << "\n";
}

int ExitCode() { return g_all_checks_passed ? 0 : 1; }

void Must(const Status& status, const std::string& context) {
  if (status.ok()) return;
  std::cerr << context << ": " << status << "\n";
  std::exit(2);
}

void PrintSearchCostTable(const std::string& title,
                          const std::vector<SearchCostRow>& rows) {
  // Collect axes: x = network size, one column per (series, churn),
  // columns in first-seen order with their labels built in the same
  // pass so headers and data can never desynchronize.
  std::set<size_t> sizes;
  std::vector<std::pair<std::string, double>> column_keys;
  std::vector<std::string> columns;  // Parallel to column_keys.
  std::map<std::pair<std::string, double>, std::map<size_t, double>> data;
  for (const SearchCostRow& row : rows) {
    sizes.insert(row.network_size);
    const auto key = std::make_pair(row.series, row.churn_fraction);
    if (data.find(key) == data.end()) {
      std::string label = row.series;
      if (row.churn_fraction > 0.0) {
        label += StrCat("@", FormatDouble(row.churn_fraction * 100, 0),
                        "%crash");
      }
      column_keys.push_back(key);
      columns.push_back(std::move(label));
    }
    data[key][row.network_size] = row.avg_cost;
  }
  TablePrinter table(title);
  std::vector<std::string> header = {"network_size"};
  for (const std::string& label : columns) header.push_back(label);
  table.SetHeader(std::move(header));
  for (size_t size : sizes) {
    std::vector<std::string> out_row = {StrCat(size)};
    for (const auto& key : column_keys) {
      const auto& series = data[key];
      const auto it = series.find(size);
      out_row.push_back(it == series.end()
                            ? "-"
                            : FormatDouble(it->second, 2));
    }
    table.AddRow(std::move(out_row));
  }
  table.Print(std::cout);
}

}  // namespace oscar::bench
