// The benchmark's four workloads. Each run grows (or restores) its
// inputs from one seed, repeats its measured phase in-process, checks
// the library's outputs, and reports either the end-to-end metrics
// (untraced) or the per-layer metrics (traced; see tracing.h).

#ifndef OSCAR_BENCHMARK_WORKLOADS_H_
#define OSCAR_BENCHMARK_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "tracing.h"

namespace oscar_bench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Distribution of one timed quantity over a run's repetitions.
/// Quartiles interpolate linearly between order statistics.
struct Summary {
  size_t n = 0;
  double min = 0.0;
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double max = 0.0;
};

/// Worker threads of every parallel library call (OSCAR_THREADS). One:
/// the host-speed kernel (reference.h) then runs on the core that ran
/// the interval it corrects. On a shared 4-vCPU host, serve's route
/// phase at 2 threads spread 0.23 between runs, at 1 thread 0.07.
constexpr uint32_t kThreads = 1;

struct RunOptions {
  std::string workload;
  /// The traffic: lookup sources, keys and arrival times.
  uint64_t seed = 42;
  /// The dataset: grown topologies and churn-repair's churn schedule.
  /// It stays fixed as --seed varies, because grown topologies differ a
  /// lot between seeds (search cost 12.8-17.9 messages over seeds 1-10
  /// at N=3000) and the bounds are checked on runs at ten seeds. ab.py
  /// sets it to the claim's seed, so a held-out seed holds out both.
  uint64_t dataset_seed = 42;
  /// Measured time per run; repetitions continue until it is reached
  /// and the workload's minimum repetition count has run. The default is
  /// BENCHMARK.json's run_seconds.
  double seconds = 15.0;
  bool trace = false;
  /// N=300, one repetition per mode: checks oscar_benchmark itself, measures nothing.
  bool smoke = false;
};

struct RunReport {
  /// End-to-end metrics (untraced) or per-layer metrics (traced): the
  /// names BENCHMARK.json declares, identical for every workload.
  std::vector<Metric> metrics;
  /// Workload-specific facts for the results file (churn volume,
  /// maintenance rounds, ...). Not part of the declared metric set.
  std::vector<Metric> details;
  std::vector<std::pair<std::string, Summary>> timings;
  std::vector<Span> spans;  // Traced runs only.
  /// Library calls and output checks made, and how many failed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload; never throws. Failures land in the report.
RunReport RunWorkload(const RunOptions& options);

}  // namespace oscar_bench

#endif  // OSCAR_BENCHMARK_WORKLOADS_H_
