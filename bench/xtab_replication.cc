// Extension table X9: data availability vs replication factor.
//
// The data-oriented payoff: items stored at owner + (r-1) successors
// survive crash waves with probability ~1 - f^r. This harness places
// items over a grown Oscar network, crashes 10% / 33%, and reports
// availability before and after re-replication — quantifying both the
// redundancy law and the repair exposure window.

#include <iostream>

#include "bench_util.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "churn/churn.h"
#include "core/simulation.h"
#include "store/replicated_store.h"

int main() {
  using namespace oscar;
  ExperimentScale scale = ScaleFromEnv();
  scale.target_size = std::min<size_t>(scale.target_size, 3000);
  scale.checkpoints.clear();
  bench::PrintHeader("X9 (extension)",
                     "item availability vs replication factor under "
                     "crash waves (items follow the key distribution)",
                     scale);

  const auto keys = bench::Must(MakeKeyDistribution("gnutella"), "keys");
  const auto degrees =
      bench::Must(MakePaperDegreeDistribution("constant"), "degrees");
  GrowthConfig config;
  config.target_size = scale.target_size;
  config.queries_per_checkpoint = 1;
  config.seed = scale.seed;
  config.key_distribution = keys;
  config.degree_distribution = degrees;
  config.overlay = OscarFactory()();
  Simulation sim(std::move(config));
  bench::Must(sim.Run(), "growth");

  const size_t num_items = 5000;
  TablePrinter table(StrCat(num_items, " items, availability (%)"));
  table.SetHeader({"replicas", "crash", "available", "at-owner",
                   "after re-replication", "lost"});
  double r1_33 = 0, r3_33 = 0;
  for (const uint32_t replicas : {1u, 2u, 3u, 5u}) {
    for (const double crash : {0.10, 0.33}) {
      Network net = sim.network();  // Fresh copy per cell.
      ReplicatedStore store(replicas);
      Rng rng(scale.seed + 13);
      for (size_t i = 0; i < num_items; ++i) {
        bench::Must(store.Put(net, keys->Sample(&rng), StrCat("item", i)),
                    "put");
      }
      bench::Must(CrashFraction(&net, crash, &rng), "crash");
      const AvailabilityReport before = store.CheckAvailability(net);
      const size_t lost = store.ReReplicate(net);
      const AvailabilityReport after = store.CheckAvailability(net);
      table.AddRow({StrCat(replicas), FormatPercent(crash, 0),
                    FormatPercent(before.availability()),
                    FormatPercent(before.owner_hit_rate()),
                    FormatPercent(after.availability()),
                    StrCat(lost)});
      if (crash > 0.2) {
        if (replicas == 1) r1_33 = before.availability();
        if (replicas == 3) r3_33 = before.availability();
      }
    }
  }
  table.Print(std::cout);

  bench::ShapeCheck(
      "availability follows the redundancy law (r=3 >> r=1 at 33%)",
      r3_33 > r1_33 + 0.20);
  bench::ShapeCheck("r=3 survives 33% crashes nearly unscathed (>= 95%)",
                    r3_33 >= 0.95);
  bench::ShapeCheck(
      "r=1 at 33% loses roughly the crashed fraction (65%..70% left)",
      r1_33 > 0.60 && r1_33 < 0.75);
  return bench::ExitCode();
}
