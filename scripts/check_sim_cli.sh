#!/usr/bin/env bash
# Flag-parsing contract test for the oscar_sim CLI, run under ctest.
#
#   scripts/check_sim_cli.sh path/to/oscar_sim
#
# Every malformed invocation must exit 2 AND print the usage line on
# stderr; the accepted corners (repeated --scenarios, --help) must keep
# their documented behavior. Keeps the binary cheap to probe by pinning
# a tiny scale (the rejections short-circuit before any growth anyway).

set -euo pipefail

sim="${1:?usage: check_sim_cli.sh path/to/oscar_sim}"
export OSCAR_BENCH_SIZE=32 OSCAR_BENCH_QUERIES=8

fail=0

# expect_reject <label> <args...>: exit must be 2, stderr must carry a
# usage line. (The || capture keeps the expected-nonzero probe from
# tripping errexit.)
expect_reject() {
  local label="$1"
  shift
  local err status=0
  err=$("${sim}" "$@" 2>&1 >/dev/null) || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "FAIL ${label}: exit=${status}, want 2 (args: $*)" >&2
    fail=1
  fi
  if ! grep -q "^usage: oscar_sim" <<< "${err}"; then
    echo "FAIL ${label}: no usage line on stderr (args: $*)" >&2
    fail=1
  fi
}

# expect_ok <label> <args...>: exit must be 0.
expect_ok() {
  local label="$1"
  shift
  if ! "${sim}" "$@" >/dev/null 2>&1; then
    echo "FAIL ${label}: nonzero exit (args: $*)" >&2
    fail=1
  fi
}

expect_reject "empty --scenarios= value"        --scenarios=
expect_reject "missing --scenarios value"       --scenarios
expect_reject "comma-only --scenarios"          --scenarios=,,
expect_reject "empty --trace-file= value"       --trace-file=
expect_reject "missing --trace-file value"      --trace-file
expect_reject "duplicate --trace-file"          --trace-file=a.csv --trace-file=b.csv
expect_reject "bogus --trace-format"            --trace-file=a --trace-format=xml
expect_reject "missing --trace-format value"    --trace-file=a --trace-format
expect_reject "--trace-format without file"     --trace-format=otrace
expect_reject "negative --queue-cadence-ms"     --queue-cadence-ms=-1
expect_reject "non-numeric --queue-cadence-ms"  --queue-cadence-ms=soon
expect_reject "nan --queue-cadence-ms"          --queue-cadence-ms=nan
expect_reject "overflowing --queue-cadence-ms"  --queue-cadence-ms=1e999
expect_reject "negative --maintenance-cadence-ms"    --maintenance-cadence-ms=-5
expect_reject "non-numeric --maintenance-cadence-ms" --maintenance-cadence-ms=often
expect_reject "nan --maintenance-cadence-ms"    --maintenance-cadence-ms=nan
expect_reject "inf --maintenance-cadence-ms"    --maintenance-cadence-ms=inf
expect_reject "empty --maintenance-cadence-ms value" --maintenance-cadence-ms=
expect_reject "missing --maintenance-cadence-ms value" --maintenance-cadence-ms
expect_reject "empty --fault-plan value"        --fault-plan=
expect_reject "missing --fault-plan value"      --fault-plan
expect_reject "unknown fault kind"              --fault-plan=meteor@10:0.2,0.1
expect_reject "fault plan missing @"            --fault-plan=crash10:0.2,0.1
expect_reject "crash cannot heal"               --fault-plan=crash@10+5:0.2,0.1
expect_reject "partition loss out of range"     --fault-plan=partition@10+5:0.0,0.2,0.5,0.2,1.5
expect_reject "slow multiplier below 1"         --fault-plan=slow@10+5:0.2,0.1,0.5
expect_reject "trailing fault separator"        --fault-plan='crash@10:0.2,0.1;'
expect_reject "unknown flag"                    --frobnicate
expect_reject "unknown scenario"                no-such-scenario
expect_reject "unknown scenario after valid"    baseline no-such-scenario
expect_reject "unknown name in --scenarios"     --scenarios=baseline,no-such-scenario

expect_ok "--help exits 0"  --help
expect_ok "--list exits 0"  --list
# Repeated --scenarios accumulate (documented behavior, like bare names).
expect_ok "repeated --scenarios accumulate"  --scenarios=baseline --scenarios=message-loss
# Fault injection knobs: a valid plan plus an explicit cadence runs, and
# repeated --fault-plan flags accumulate like --scenarios.
expect_ok "valid fault plan with cadence" \
  --maintenance-cadence-ms=25 \
  --fault-plan='crash@5:0.2,0.1;slow@2+4:0.5,0.2' baseline
expect_ok "repeated --fault-plan accumulate" \
  --fault-plan='crash@5:0.2,0.1' --fault-plan='partition@2+4:0.0,0.2,0.5,0.2' \
  baseline
expect_ok "cadence zero disables maintenance"  --maintenance-cadence-ms=0 repair-vs-churn

if [[ "${fail}" -eq 0 ]]; then
  echo "check_sim_cli: all flag-parsing corners OK"
fi
exit "${fail}"
