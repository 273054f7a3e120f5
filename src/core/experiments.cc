#include "core/experiments.h"

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>

#include "churn/churn.h"
#include "common/audit.h"
#include "common/string_util.h"
#include "core/topology_snapshot.h"
#include "overlay/chord/chord_overlay.h"
#include "overlay/kleinberg/kleinberg_overlay.h"
#include "overlay/mercury/mercury_overlay.h"
#include "overlay/oscar/oscar_overlay.h"

namespace oscar {
namespace {

uint64_t EnvOrDefault(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  uint64_t parsed = 0;
  return value != nullptr && ParseUint(value, &parsed) ? parsed : fallback;
}

}  // namespace

ExperimentScale ScaleFromEnv() {
  ExperimentScale scale;
  const char* mode_env = std::getenv("OSCAR_BENCH_SCALE");
  const std::string mode = mode_env == nullptr ? "smoke" : mode_env;
  if (mode == "paper") {
    scale.target_size = 10000;
    scale.queries = 1000;
    scale.checkpoints = {2000, 4000, 6000, 8000, 10000};
  } else if (mode == "n3000") {
    // The perf-probe scale PRs 5-8 track growth trajectories at.
    scale.target_size = 3000;
    scale.queries = 600;
    scale.checkpoints = {750, 1500, 3000};
  } else if (mode == "huge") {
    // Million-peer growth. Queries are SPARSE (200 per checkpoint —
    // evaluation cost must not drown construction cost, the thing this
    // tier measures), and ExperimentScale::huge tells harnesses to use
    // oracle segment sampling: random-walk sampling costs ~16k protocol
    // steps per join and would push construction into hours.
    scale.target_size = 1000000;
    scale.queries = 200;
    scale.checkpoints = {250000, 500000, 1000000};
    scale.huge = true;
  } else {
    // "smoke" (historical alias "small"): seconds per harness.
    scale.target_size = 600;
    scale.queries = 600;
    scale.checkpoints = {150, 300, 600};
  }
  scale.seed = EnvOrDefault("OSCAR_BENCH_SEED", 42);
  scale.queries = static_cast<size_t>(
      EnvOrDefault("OSCAR_BENCH_QUERIES", scale.queries));
  const size_t size_override = static_cast<size_t>(
      EnvOrDefault("OSCAR_BENCH_SIZE", scale.target_size));
  if (size_override != scale.target_size) {
    scale.target_size = std::max<size_t>(8, size_override);
    scale.checkpoints = {scale.target_size / 4, scale.target_size / 2,
                         scale.target_size};
  }
  return scale;
}

OverlayFactory OscarFactory() {
  return [] { return std::make_shared<OscarOverlay>(); };
}

OverlayFactory OscarNoP2cFactory() {
  return [] {
    OscarOptions options;
    options.use_p2c = false;
    return std::make_shared<OscarOverlay>(options);
  };
}

OverlayFactory OscarWithSampleSize(uint32_t samples_per_median) {
  return [samples_per_median] {
    OscarOptions options;
    options.samples_per_median = samples_per_median;
    return std::make_shared<OscarOverlay>(options);
  };
}

OverlayFactory MercuryFactory() {
  return [] { return std::make_shared<MercuryOverlay>(); };
}

OverlayFactory ChordFactory() {
  return [] { return std::make_shared<ChordOverlay>(); };
}

OverlayFactory KleinbergFactory() {
  return [] { return std::make_shared<KleinbergOverlay>(); };
}

Result<OverlayFactory> MakeNamedOverlay(const std::string& name) {
  if (name == "oscar") return OscarFactory();
  if (name == "oscar-nop2c") return OscarNoP2cFactory();
  if (name == "mercury") return MercuryFactory();
  if (name == "chord") return ChordFactory();
  if (name == "kleinberg") return KleinbergFactory();
  return Status::Error(
      StrCat("unknown overlay: '", name,
             "' (expected oscar|oscar-nop2c|mercury|chord|kleinberg)"));
}

namespace {

/// Shared growth-config plumbing for the runners.
Result<GrowthConfig> BaseConfig(const ExperimentScale& scale,
                                const std::string& key_name,
                                const std::string& degree_name,
                                const OverlayFactory& factory) {
  auto keys = MakeKeyDistribution(key_name);
  if (!keys.ok()) return keys.status();
  auto degrees = MakePaperDegreeDistribution(degree_name);
  if (!degrees.ok()) return degrees.status();
  GrowthConfig config;
  config.target_size = scale.target_size;
  config.queries_per_checkpoint = scale.queries;
  config.seed = scale.seed;
  config.checkpoints = scale.checkpoints;
  config.key_distribution = std::move(keys).value();
  config.degree_distribution = std::move(degrees).value();
  config.overlay = factory();
  if (config.overlay == nullptr) {
    return Status::Error("overlay factory returned null");
  }
  return config;
}

}  // namespace

Result<std::vector<SearchCostRow>> RunSearchCostVsSize(
    const ExperimentScale& scale,
    const std::vector<std::string>& degree_names,
    const std::vector<double>& churn_fractions,
    const OverlayFactory& factory) {
  std::vector<SearchCostRow> rows;
  for (const std::string& degree_name : degree_names) {
    auto config = BaseConfig(scale, "gnutella", degree_name, factory);
    if (!config.ok()) return config.status();
    // The hook outlives the move of the config into Simulation, so it
    // must hold its own reference to the query distribution.
    const KeyDistributionPtr query_keys = config.value().key_distribution;
    config.value().checkpoint_hook =
        [&rows, &scale, &churn_fractions, &degree_name, query_keys](
            const Network& net, size_t size, Rng* rng) -> Status {
      // Common random numbers across churn levels: every level crashes
      // a prefix of the same shuffle (so the 33% crash set contains the
      // 10% one) and replays the same query keys. The measured deltas
      // between churn levels are then structural, not sampling noise.
      const uint64_t eval_seed = rng->Next();
      // One freeze serves every row: the 0% row routes straight over
      // the frozen snapshot (identical routes by the view-equivalence
      // contract), and each churn level crashes a delta-restore of it —
      // RestoreInto repairs only the peers the previous level's crashes
      // touched, and CrashFraction batches its ring removals — then
      // refreezes the crashed scratch so the evaluation itself also
      // reads CSR rows. Every row stays byte-identical to the
      // historical deep-copy evaluation (guarded by
      // topology_snapshot_test and backend_equivalence_test).
      std::optional<TopologySnapshot> frozen;
      Network scratch;  // Recycled across churn levels via RestoreInto.
      for (const double churn : churn_fractions) {
        SearchCostRow row;
        row.series = degree_name;
        row.churn_fraction = churn;
        row.network_size = size;
        SearchOptions search;
        search.num_queries = scale.queries;
        search.query_distribution = query_keys.get();
        search.source_by_key = true;
        SearchEvaluation eval;
        Rng query_rng(eval_seed ^ 0x9e3779b97f4a7c15ULL);
        if (!frozen.has_value()) frozen.emplace(net);
        if (churn == 0.0) {
          // Same router as the churn rows: on an intact network the
          // fault-aware DFS degenerates to pure nearest-first greedy
          // with zero waste, so the churn deltas compare like to like.
          eval = EvaluateSearch(*frozen, Routing::kBacktracking, search,
                                &query_rng);
        } else {
          frozen->RestoreInto(&scratch);  // Crash it, keep growing.
          // The journal-driven repair path runs here every churn level
          // after the first — the highest-traffic delta-restore site,
          // so it carries the restore-identity spot check.
          if (AuditEnabled()) {
            const Status audit = frozen->CheckRestoreIdentity(scratch);
            OSCAR_AUDIT(audit.ok(),
                        "fig2 delta restore: " + audit.message());
          }
          Rng crash_rng(eval_seed);
          auto crash_result = CrashFraction(&scratch, churn, &crash_rng);
          if (!crash_result.ok()) return crash_result.status();
          const TopologySnapshot crashed(scratch);
          eval = EvaluateSearch(crashed, Routing::kBacktracking, search,
                                &query_rng);
        }
        row.avg_cost = eval.avg_cost;
        row.avg_wasted = eval.avg_wasted;
        row.success_rate = eval.success_rate;
        rows.push_back(std::move(row));
      }
      return Status::Ok();
    };
    config.value().queries_per_checkpoint = 1;  // Hook does the real eval.
    Simulation sim(std::move(config).value());
    auto run = sim.Run();
    if (!run.ok()) return run.status();
  }
  return rows;
}

Result<std::vector<ComparisonRow>> RunOverlayComparison(
    const ExperimentScale& scale,
    const std::vector<std::pair<std::string, OverlayFactory>>& overlays,
    const std::vector<std::string>& key_names) {
  std::vector<ComparisonRow> rows;
  for (const auto& [overlay_name, factory] : overlays) {
    for (const std::string& key_name : key_names) {
      auto config = BaseConfig(scale, key_name, "constant", factory);
      if (!config.ok()) return config.status();
      config.value().checkpoints = {scale.target_size};
      Simulation sim(std::move(config).value());
      auto run = sim.Run();
      if (!run.ok()) return run.status();
      if (run.value().checkpoints.empty()) {
        return Status::Error("overlay comparison: no checkpoint result");
      }
      const CheckpointResult& last = run.value().checkpoints.back();
      ComparisonRow row;
      row.overlay_name = overlay_name;
      row.key_name = key_name;
      row.network_size = last.network_size;
      row.avg_cost = last.search.avg_cost;
      row.success_rate = last.search.success_rate;
      row.utilization = ComputeDegreeLoad(sim.network()).utilization;
      row.sampling_steps = sim.config().overlay->sampling_steps();
      rows.push_back(std::move(row));
    }
  }
  return rows;
}

Result<std::vector<DegreeLoadRow>> RunDegreeLoad(
    const ExperimentScale& scale,
    const std::vector<std::string>& degree_names,
    const OverlayFactory& factory, const std::string& overlay_name) {
  std::vector<DegreeLoadRow> rows;
  for (const std::string& degree_name : degree_names) {
    auto config = BaseConfig(scale, "gnutella", degree_name, factory);
    if (!config.ok()) return config.status();
    config.value().checkpoints = {scale.target_size};
    config.value().queries_per_checkpoint = 1;  // Structure only.
    Simulation sim(std::move(config).value());
    auto run = sim.Run();
    if (!run.ok()) return run.status();
    DegreeLoadRow row;
    row.overlay_name = overlay_name;
    row.degree_name = degree_name;
    row.network_size = sim.network().alive_count();
    row.report = ComputeDegreeLoad(sim.network());
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace oscar
