#!/usr/bin/env bash
# Determinism contract test for the simulation CLIs, run under ctest:
#
#   scripts/check_determinism.sh oscar_sim|oscar_serve path/to/binary [COMPILER_ID]
#
# For seeds 42-45 the same invocation runs at OSCAR_THREADS=1, at 4 and
# at 1 again, each writing a `.otrace` trace. The stdout summary and the
# trace bytes must match across the three runs, and differ between
# seeds 42 and 43 (a constant output would measure nothing). Only stderr
# may carry wall-clock numbers. oscar_sim runs the four hostile
# scenarios (every fault and repair path) plus baseline, rolling-churn
# and flash-crowd (every lookup submitted at t=0: the all-ties case the
# event queue must dispatch in schedule order), with the queue-depth
# sampler on every 5 virtual ms, so the traces also carry each peer's
# service-queue depth and the in-flight count through every run;
# oscar_serve sweeps rate limiting off and on over Zipf-hot keys.
# Last, the sha256 digests of each seed's OSCAR_THREADS=1 stdout and
# trace must match tests/golden/<tool>_determinism.sha256, through
# check_golden.sh (fatal only under the toolchain stamped there).

set -euo pipefail

tool="${1:?usage: check_determinism.sh oscar_sim|oscar_serve path/to/binary [COMPILER_ID]}"
bin="${2:?missing path to ${tool}}"
compiler="${3:-}"
scripts="$(cd "$(dirname "$0")" && pwd)"
workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT
unset OSCAR_BENCH_SCALE 2>/dev/null || true

case "${tool}" in
oscar_sim)
  export OSCAR_BENCH_SIZE=150 OSCAR_BENCH_QUERIES=80
  scenarios=(partition-heal repair-vs-churn adversarial-hotkeys
             cascade-slowdown baseline rolling-churn flash-crowd)
  args=(--queue-cadence-ms 5 "${scenarios[@]}")
  ;;
oscar_serve)
  export OSCAR_BENCH_SIZE=300
  args=(--lookups=20000 --rates=0,4000 --hot-keys=8)
  ;;
*)
  echo "check_determinism.sh: unknown tool '${tool}' (want oscar_sim or oscar_serve)" >&2
  exit 2
  ;;
esac

fail=0

# run <seed> <threads> <name>: writes <name>.out (stdout) and
# <name>.otrace under the work directory.
run() {
  local name="${workdir}/$3"
  if ! OSCAR_BENCH_SEED="$1" OSCAR_THREADS="$2" "${bin}" "${args[@]}" \
       --trace-file "${name}.otrace" > "${name}.out" 2>/dev/null; then
    echo "FAIL seed=$1 threads=$2: nonzero exit" >&2
    fail=1
  fi
}

# same <what> <a> <b>: stdout and trace of runs a and b must match.
same() {
  local ext
  for ext in out otrace; do
    if ! cmp -s "${workdir}/$2.${ext}" "${workdir}/$3.${ext}"; then
      echo "FAIL $1: .${ext} differs ($2 vs $3)" >&2
      if [[ "${ext}" == out ]]; then
        # diff exits 1 on a difference; keep it from tripping errexit.
        diff "${workdir}/$2.out" "${workdir}/$3.out" | head -20 >&2 || true
      fi
      fail=1
    fi
  done
}

for seed in 42 43 44 45; do
  run "${seed}" 1 "s${seed}_t1"
  run "${seed}" 4 "s${seed}_t4"
  run "${seed}" 1 "s${seed}_rerun"
  same "seed=${seed} OSCAR_THREADS=1 vs 4" "s${seed}_t1" "s${seed}_t4"
  same "seed=${seed} rerun" "s${seed}_t1" "s${seed}_rerun"
done

for ext in out otrace; do
  if cmp -s "${workdir}/s42_t1.${ext}" "${workdir}/s43_t1.${ext}"; then
    echo "FAIL: seeds 42 and 43 produced identical .${ext}" >&2
    fail=1
  fi
done

if [[ "${tool}" == oscar_sim ]]; then
  # The fault pipeline actually ran: the recovery table prints only
  # when faults fired, and every scenario reports a row.
  if ! grep -q "recovery (per injected fault)" "${workdir}/s42_t1.out"; then
    echo "FAIL: no recovery table in the seed-42 summary" >&2
    fail=1
  fi
  for scenario in "${scenarios[@]}"; do
    if ! grep -q "^| ${scenario} " "${workdir}/s42_t1.out"; then
      echo "FAIL: scenario ${scenario} missing from the seed-42 summary" >&2
      fail=1
    fi
  done
fi

if ! (cd "${workdir}" &&
      bash "${scripts}/check_golden.sh" \
        "${scripts}/../tests/golden/${tool}_determinism.sha256" "${compiler}" \
        sha256sum s4{2..5}_t1.out s4{2..5}_t1.otrace); then
  fail=1
fi

if [[ "${fail}" -eq 0 ]]; then
  echo "check_determinism ${tool}: stdout and .otrace stable across" \
       "OSCAR_THREADS=1/4 and reruns, seeds 42-45"
fi
exit "${fail}"
