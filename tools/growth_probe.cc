// Growth micro-probe: grows one fig1c-style Oscar network (Gnutella
// keys, "realistic" degrees) and reports the wall time of the
// checkpoint-rewiring phase, the whole growth and the peak RSS as one
// JSON object on stdout.
//
//   OSCAR_BENCH_SCALE  tier (smoke|n3000|paper|huge); "huge" switches
//                      the overlay to oracle segment sampling (walks
//                      are wall-clock-infeasible at 10^6 peers)
//   OSCAR_BENCH_SIZE   target size (default: the tier's, 600 at smoke)
//   OSCAR_BENCH_SEED   growth seed (default 42)
//   OSCAR_THREADS      rewiring/planning worker threads (default 1)
//   OSCAR_JOIN_BATCH   joins planned per wave over a shared epoch
//                      snapshot (default 0 = the sequential per-join
//                      path; see GrowthConfig::join_batch)
//
// Every row carries the build flavor that produced it, so a sanitizer
// row is never mistaken for a timing run. Timing goes to the JSON only —
// the probe prints no topology-dependent numbers, so it stays out of
// the determinism contract's way. benchmark/ is the repository's timing
// benchmark; this probe is the huge-tier and TSan smoke driver.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/audit.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "core/experiments.h"
#include "core/simulation.h"
#include "overlay/oscar/oscar_overlay.h"
#include "sampling/oracle_sampler.h"

namespace {

// Process peak RSS in KiB (0 where getrusage is unavailable). Linux
// reports ru_maxrss in KiB already; macOS reports bytes.
long PeakRssKb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return usage.ru_maxrss / 1024;
#else
  return usage.ru_maxrss;
#endif
#else
  return 0;
#endif
}

// Garbage, negative or above-uint32 values fall back to 0.
uint32_t JoinBatchFromEnv() {
  const char* value = std::getenv("OSCAR_JOIN_BATCH");
  uint64_t parsed = 0;
  if (value == nullptr || !oscar::ParseUint(value, &parsed) ||
      parsed > UINT32_MAX) {
    return 0;
  }
  return static_cast<uint32_t>(parsed);
}

}  // namespace

int main() {
  using namespace oscar;
  if (AuditEnabled()) {
    std::fprintf(stderr,
                 "growth_probe: OSCAR_AUDIT=1 — runtime invariant audits on\n");
  }
  const ExperimentScale scale = ScaleFromEnv();
  const uint32_t threads = ThreadCountFromEnv();
  const uint32_t join_batch = JoinBatchFromEnv();

  auto keys = MakeKeyDistribution("gnutella");
  auto degrees = MakePaperDegreeDistribution("realistic");
  if (!keys.ok() || !degrees.ok()) {
    std::fprintf(stderr, "growth_probe: distribution setup failed\n");
    return 2;
  }
  GrowthConfig config;
  config.target_size = scale.target_size;
  config.queries_per_checkpoint = 1;  // Rewiring is the probe target.
  config.seed = scale.seed;
  config.checkpoints = scale.checkpoints;
  config.key_distribution = std::move(keys).value();
  config.degree_distribution = std::move(degrees).value();
  if (scale.huge) {
    // Oracle segment sampling at the huge tier (see README "Scale
    // tiers"): construction cost is the probe target, not sampling
    // bandwidth, and walks would take hours at 10^6 peers.
    OscarOptions options;
    options.sampler = std::make_shared<OracleSegmentSampler>();
    config.overlay = std::make_shared<OscarOverlay>(options);
  } else {
    config.overlay = OscarFactory()();
  }
  config.rewire_threads = threads;
  config.join_batch = join_batch;

  Simulation sim(std::move(config));
  const auto start = std::chrono::steady_clock::now();
  auto run = sim.Run();
  const double total_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  if (!run.ok()) {
    std::fprintf(stderr, "growth_probe: growth failed\n");
    return 2;
  }
  const GrowthResult& result = run.value();
  const double per_checkpoint =
      result.rewire_count > 0
          ? result.rewire_wall_ms / static_cast<double>(result.rewire_count)
          : 0.0;
  std::printf(
      "{\"size\": %zu, \"threads\": %u, \"nproc\": %u, "
      "\"join_batch\": %u, \"sampler\": \"%s\", "
      "\"sanitizer\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"checkpoints\": %zu, "
      "\"rewire_ms_total\": %.1f, \"rewire_ms_per_checkpoint\": %.1f, "
      "\"growth_ms_total\": %.1f, \"peak_rss_kb\": %ld}\n",
      sim.network().alive_count(), threads,
      std::thread::hardware_concurrency(), join_batch,
      scale.huge ? "oracle" : "walk", OSCAR_SANITIZE_FLAVOR, OSCAR_BUILD_TYPE,
      OSCAR_COMPILER_ID, result.rewire_count,
      result.rewire_wall_ms, per_checkpoint, total_ms, PeakRssKb());
  return 0;
}
