#!/usr/bin/env bash
# Seed census: how often each shape check fails across seeds.
#
#   scripts/seed_census.sh [first] [last] [build-dir]
#
# Runs every figure harness (each bench/*.cc but bench_util and
# micro_core) from build-dir (default: build/ at the repo root) at every
# OSCAR_BENCH_SEED in first..last (default 1..64), `nproc` runs at a
# time, and prints one line per shape check: its failure count and the
# failing seeds. A run that exits with neither 0 nor 1 (an
# infrastructure error) gets its own line. Scale comes from the usual
# OSCAR_BENCH_* environment (default: small). The last line is the wall
# time. This is not a ctest: seeds 1..64 take about a minute on 4 cores.
# tests/golden/census_seeds1-64.txt is its output at the commit that
# last re-baselined the harnesses.

set -euo pipefail

first="${1:-1}"
last="${2:-64}"
root="$(cd "$(dirname "$0")/.." && pwd)"
build="${3:-${root}/build}"
if ! [[ "${first}" =~ ^[0-9]+$ && "${last}" =~ ^[0-9]+$ ]] ||
   (( first > last )); then
  echo "usage: seed_census.sh [first] [last] [build-dir]" >&2
  exit 2
fi

harnesses=()
for src in "${root}"/bench/*.cc; do
  name="$(basename "${src}" .cc)"
  [[ "${name}" == bench_util || "${name}" == micro_core ]] && continue
  if [[ ! -x "${build}/${name}" ]]; then
    echo "seed_census.sh: no harness binary ${build}/${name}" >&2
    exit 2
  fi
  harnesses+=("${name}")
done

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT
jobs="$(nproc)"
start="$(date +%s)"

# The bash -c program expands its own positional parameters.
# shellcheck disable=SC2016
for name in "${harnesses[@]}"; do
  for ((seed = first; seed <= last; ++seed)); do
    echo "${name} ${seed}"
  done
done | xargs -P "${jobs}" -n 2 bash -c '
  status=0
  OSCAR_BENCH_SEED="$3" "$1/$2" > "$0/$2.$3.out" 2>/dev/null || status=$?
  echo "${status}" > "$0/$2.$3.rc"' "${workdir}" "${build}"

seeds=$(( last - first + 1 ))
echo "# seed census: ${#harnesses[@]} harnesses x seeds ${first}..${last}" \
     "(${seeds} each), ${jobs} runs at a time," \
     "OSCAR_BENCH_SCALE=${OSCAR_BENCH_SCALE:-small}"
echo "# failed/seeds  harness  shape check  [failing seeds]"
for name in "${harnesses[@]}"; do
  for ((seed = first; seed <= last; ++seed)); do
    printf '%s %s %s\n' "${seed}" "$(cat "${workdir}/${name}.${seed}.rc")" \
      "${workdir}/${name}.${seed}.out"
  done | awk -v name="${name}" -v seeds="${seeds}" '
    {
      seed = $1; rc = $2
      if (rc != 0 && rc != 1) { bad++; bad_seeds = bad_seeds " " seed }
      while ((getline line < $3) > 0) {
        if (line !~ /^# shape-check: /) continue
        verdict = line; sub(/.* \.\.\. /, "", verdict)
        claim = line; sub(/^# shape-check: /, "", claim)
        sub(/ \.\.\. (OK|VIOLATED)$/, "", claim)
        if (!(claim in fails)) { order[++n] = claim; fails[claim] = 0 }
        if (verdict != "OK") {
          fails[claim]++; failing[claim] = failing[claim] " " seed
        }
      }
      close($3)
    }
    END {
      for (i = 1; i <= n; i++) {
        c = order[i]
        printf "%5s  %s  %s%s\n", fails[c] "/" seeds, name, c,
               fails[c] ? "  [" substr(failing[c], 2) "]" : ""
      }
      if (bad) {
        printf "%5s  %s  exit other than 0/1  [%s]\n", bad "/" seeds, name,
               substr(bad_seeds, 2)
      }
    }'
done
echo "# wall: $(( $(date +%s) - start )) s"
