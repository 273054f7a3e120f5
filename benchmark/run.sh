#!/usr/bin/env bash
# Builds the benchmark into build-benchmark/ (Release) and runs it.
#
#   bash benchmark/run.sh                      every workload, seed 42
#   bash benchmark/run.sh --seed 43            every workload, seed 43
#   bash benchmark/run.sh --workload serve --seed 42 --seconds 15 --trace 0
#
# With --workload, oscar_benchmark's output passes through unchanged: metric
# lines, then one JSON object as the last line. Without it, every
# workload runs in its own process and only the metric lines
# (`<workload> <metric> <value> <unit>`) are printed. Either way each run
# writes build-benchmark/results/<workload>[-trace]-seed<n>.json, and a
# trace run also spans-<workload>.json. Build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/build-benchmark"

if [[ ! -f "$root/CMakeLists.txt" ]]; then
  echo "run.sh: no library sources at $root (need the whole repository)" >&2
  exit 1
fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" -j 4 >&2
mkdir -p "$build/results"

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)"
bench=("$build/oscar_benchmark" --commit "$commit" --results-dir "$build/results")

for arg in "$@"; do
  if [[ "$arg" == --workload* ]]; then
    exec "${bench[@]}" "$@"
  fi
done

for workload in grow serve sim-steady churn-repair; do
  # Drop the JSON line; keep the metric lines.
  "${bench[@]}" --workload "$workload" "$@" | sed '$d'
done
