// Shared plumbing for the figure-reproduction harnesses.
//
// Every harness follows the same output contract:
//
//   1. `PrintHeader` emits a `#`-prefixed banner naming the figure, a
//      one-line summary, and the resolved ExperimentScale (so a saved
//      log is self-describing and reproducible: size, queries, seed).
//   2. The harness prints its tables, then verifies each qualitative
//      claim of the paper programmatically via `ShapeCheck`.
//   3. Each check emits exactly one trailer line of the form
//          # shape-check: <claim> ... OK|VIOLATED
//      so a regression is visible in plain bench output and greppable
//      by CI (`grep "shape-check.*VIOLATED"`).
//   4. `main` returns `ExitCode()`: 0 iff every ShapeCheck in the
//      process passed, 1 otherwise. `Must` exits 2 on infrastructure
//      failures (an experiment returning an error Status), distinct
//      from a clean run with violated claims.
//
// Stdout carries no timing; the `<harness>_seed<N>` ctests compare it
// with tests/golden/ (scripts/check_golden.sh).
//
// Environment knobs (one naming convention, `OSCAR_BENCH_*`, shared by
// every harness AND the `tools/oscar_sim` scenario runner — all of them
// resolve scale through `ScaleFromEnv`):
//
//   OSCAR_BENCH_SCALE    "small" (default; seconds per harness) or
//                        "paper" (the paper's 10k-peer runs).
//   OSCAR_BENCH_SIZE     overrides the target network size; checkpoints
//                        become size/4, size/2, size.
//   OSCAR_BENCH_QUERIES  overrides queries per evaluation point (for
//                        oscar_sim: lookups per scenario).
//   OSCAR_BENCH_SEED     overrides the deterministic seed (default 42).
//
// Unparsable values fall back to the defaults silently (by design —
// a CI environment with a stray variable should still produce a run).
// Two runs with identical knobs print byte-identical output.
//
// This header is self-contained on top of core/experiments.h — it pulls
// in the ExperimentScale/row types the signatures below need.

#ifndef OSCAR_BENCH_BENCH_UTIL_H_
#define OSCAR_BENCH_BENCH_UTIL_H_

#include <string>
#include <utility>
#include <vector>

#include "core/experiments.h"

namespace oscar::bench {

/// Prints the standard experiment banner (figure id, scale, seed).
void PrintHeader(const std::string& figure, const std::string& summary,
                 const ExperimentScale& scale);

/// Prints one `# shape-check:` trailer line. Every harness verifies its
/// qualitative claims programmatically so a regression is visible in
/// plain bench output (and greppable by CI). A failed check latches the
/// process-wide state consumed by `ExitCode`.
void ShapeCheck(const std::string& claim, bool holds);

/// Exit code helper: 0 when all shape checks passed so far, 1 otherwise.
int ExitCode();

/// The infrastructure-error exit: on an error `status`, prints
/// `<context>: <status>` to stderr and exits 2.
void Must(const Status& status, const std::string& context);

/// The same for a Result; returns its value.
template <typename T>
T Must(Result<T> result, const std::string& context) {
  Must(result.status(), context);
  return std::move(result).value();
}

/// Arrange SearchCostRow series into a size-by-series table and print.
void PrintSearchCostTable(const std::string& title,
                          const std::vector<SearchCostRow>& rows);

}  // namespace oscar::bench

#endif  // OSCAR_BENCH_BENCH_UTIL_H_
