#!/usr/bin/env bash
# Binary-trace contract test, run under ctest:
#
#   scripts/check_trace_roundtrip.sh oscar_sim oscar_trace oscar_serve
#
#  1. Both CLIs write a `.otrace`, and `oscar_trace --csv` decodes each
#     to CSV. (That the decoded rows equal a direct CsvTraceSink's is
#     pinned in process by trace_test's CsvReplayMatchesDirectSink
#     tests, for scenario and serve traces alike.)
#  2. The CSV carries `scenario` as a proper column: exactly one header
#     line, no `# scenario=` comment interleaving.
#  3. The summary/heatmap mode succeeds on a good file, and a truncated
#     `.otrace` is rejected with exit 2.
#
# Trace bytes across threads and reruns are check_determinism.sh's
# contract. Everything runs at smoke scale; the script pins its env.

set -euo pipefail

sim="${1:?usage: check_trace_roundtrip.sh oscar_sim oscar_trace oscar_serve}"
tracer="${2:?missing oscar_trace path}"
serve="${3:?missing oscar_serve path}"
workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

export OSCAR_BENCH_SIZE=200 OSCAR_BENCH_QUERIES=120 OSCAR_BENCH_SEED=42
unset OSCAR_BENCH_SCALE 2>/dev/null || true

scenarios=(baseline rolling-churn)
fail=0

# run <command...>: the command must exit 0 (output discarded).
run() {
  if ! "$@" >/dev/null 2>&1; then
    echo "FAIL nonzero exit: $*" >&2
    fail=1
  fi
}

# --- 1. each CLI's .otrace decodes to CSV ---------------------------
run "${sim}" "${scenarios[@]}" --trace-file "${workdir}/sim.otrace"
run "${serve}" --lookups=4000 --rates=0,4000 "--trace-file=${workdir}/serve.otrace"
for name in sim serve; do
  base="${workdir}/${name}"
  if ! "${tracer}" "${base}.otrace" --csv > "${base}.csv" 2>/dev/null; then
    echo "FAIL ${name}: oscar_trace --csv exited nonzero" >&2
    fail=1
  fi
done

# --- 2. scenario is a column; header exactly once; no comments -------
header='t_ms,scenario,event,lookup,peer,to,info'
if [[ "$(head -1 "${workdir}/sim.csv")" != "${header}" ]]; then
  echo "FAIL: CSV does not start with the ${header} header" >&2
  fail=1
fi
if [[ "$(grep -cFx "${header}" "${workdir}/sim.csv")" -ne 1 ]]; then
  echo "FAIL: CSV header appears more than once" >&2
  fail=1
fi
if grep -q '^#' "${workdir}/sim.csv"; then
  echo "FAIL: CSV still interleaves # comment lines" >&2
  fail=1
fi
for scenario in "${scenarios[@]}"; do
  if ! grep -q ",${scenario}," "${workdir}/sim.csv"; then
    echo "FAIL: no rows tagged with scenario '${scenario}'" >&2
    fail=1
  fi
done

# --- 3. analyzer smoke + corruption rejection ------------------------
if ! "${tracer}" "${workdir}/sim.otrace" > "${workdir}/summary.txt" 2>&1; then
  echo "FAIL: oscar_trace summary mode exited nonzero" >&2
  fail=1
fi
if ! grep -q '^heatmap:' "${workdir}/summary.txt"; then
  echo "FAIL: summary output has no heatmap" >&2
  fail=1
fi
head -c 64 "${workdir}/sim.otrace" > "${workdir}/truncated.otrace"
# Exit 2 is the EXPECTED outcome; capture it without tripping errexit.
truncated_status=0
"${tracer}" "${workdir}/truncated.otrace" >/dev/null 2>&1 || truncated_status=$?
if [[ "${truncated_status}" -ne 2 ]]; then
  echo "FAIL: truncated .otrace not rejected with exit 2" >&2
  fail=1
fi

if [[ "${fail}" -eq 0 ]]; then
  echo "check_trace_roundtrip: CSV decode, analyzer and truncation checks OK"
fi
exit "${fail}"
