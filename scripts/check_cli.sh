#!/usr/bin/env bash
# Flag-parsing contract test for the command-line tools, run under ctest:
#
#   scripts/check_cli.sh oscar_sim|oscar_serve|oscar_trace path/to/binary
#
# All three tools read value flags through one grammar (`--flag=value`
# and `--flag value` alike). Every malformed invocation must exit 2 AND
# print the tool's usage text on stderr; the accepted corners keep their
# documented behavior. Rejections short-circuit before any growth and
# accepted runs are pinned to a tiny scale, so the probe stays cheap.

set -euo pipefail

tool="${1:?usage: check_cli.sh oscar_sim|oscar_serve|oscar_trace path/to/binary}"
bin="${2:?missing path to ${tool}}"
if [[ ! "${tool}" =~ ^oscar_(sim|serve|trace)$ ]]; then
  echo "check_cli.sh: unknown tool '${tool}'" >&2
  exit 2
fi
workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

export OSCAR_BENCH_SIZE=48 OSCAR_BENCH_QUERIES=8 OSCAR_BENCH_SEED=42
unset OSCAR_BENCH_SCALE 2>/dev/null || true

fail=0

# expect_reject <label> <args...>: exit must be 2, stderr must carry the
# usage text. (The || capture keeps the expected-nonzero probe from
# tripping errexit.)
expect_reject() {
  local label="$1"
  shift
  local err status=0
  err=$("${bin}" "$@" 2>&1 >/dev/null) || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "FAIL ${label}: exit=${status}, want 2 (args: $*)" >&2
    fail=1
  fi
  if ! grep -q "^usage: ${tool}" <<< "${err}"; then
    echo "FAIL ${label}: no usage text on stderr (args: $*)" >&2
    fail=1
  fi
}

# expect_ok <label> <args...>: exit must be 0.
expect_ok() {
  local label="$1"
  shift
  if ! "${bin}" "$@" >/dev/null 2>&1; then
    echo "FAIL ${label}: nonzero exit (args: $*)" >&2
    fail=1
  fi
}

# expect_help_lists <flag...>: `--help` prints the usage text, generated
# from the tool's flag table, on stdout; it must name every flag.
expect_help_lists() {
  local help flag
  help=$("${bin}" --help 2>/dev/null) || true
  for flag in "$@"; do
    if ! grep -qE -- "(^|[[:space:][])${flag}([]=[:space:]]|$)" <<< "${help}"; then
      echo "FAIL --help does not list ${flag}" >&2
      fail=1
    fi
  done
}

# Corners every tool shares: an unknown flag, and --help.
expect_reject "unknown flag" --frobnicate
expect_ok "--help exits 0" --help

# The trace flags oscar_sim and oscar_serve share. A trace is always
# `.otrace` (CSV comes from `oscar_trace F.otrace --csv`), so any other
# extension is a rejection.
if [[ "${tool}" != oscar_trace ]]; then
  expect_reject "empty --trace-file= value"       --trace-file=
  expect_reject "missing --trace-file value"      --trace-file
  expect_reject "duplicate --trace-file" \
    --trace-file="${workdir}/a.otrace" --trace-file "${workdir}/b.otrace"
  expect_reject "--trace-file= with a .csv path"  --trace-file="${workdir}/run.csv"
  expect_reject "--trace-file with a .trace path" --trace-file "${workdir}/run.trace"
  expect_reject "negative --queue-cadence-ms"     --queue-cadence-ms=-1
  expect_reject "negative --queue-cadence-ms (space form)" --queue-cadence-ms -1
  expect_reject "non-numeric --queue-cadence-ms"  --queue-cadence-ms=soon
  expect_reject "nan --queue-cadence-ms"          --queue-cadence-ms=nan
  expect_reject "overflowing --queue-cadence-ms"  --queue-cadence-ms=1e999
fi

case "${tool}" in
oscar_sim)
  expect_reject "empty --scenarios= value"        --scenarios=
  expect_reject "missing --scenarios value"       --scenarios
  expect_reject "comma-only --scenarios"          --scenarios=,,
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
  expect_reject "nan crash time"                  --fault-plan=crash@nan:0.1,0.1
  expect_reject "inf crash time"                  --fault-plan=crash@inf:0.1,0.1
  expect_reject "nan slow multiplier"             --fault-plan=slow@10+50:0.1,0.2,nan
  expect_reject "nan partition loss"              --fault-plan=partition@10+50:0.1,0.2,0.5,0.2,nan
  expect_reject "space-led crash time"            --fault-plan='crash@ 5:0.1,0.1'
  expect_reject "fault heal past the time bound"  --fault-plan=partition@1e308+1e308:0.0,0.2,0.5,0.2
  expect_reject "unknown scenario"                no-such-scenario
  expect_reject "unknown scenario after valid"    baseline no-such-scenario
  expect_reject "unknown name in --scenarios"     --scenarios=baseline,no-such-scenario

  expect_ok "--list exits 0"  --list
  # Repeated --scenarios accumulate (like bare names), in either form.
  expect_ok "repeated --scenarios accumulate" \
    --scenarios=baseline --scenarios message-loss
  # Fault injection knobs: a valid plan plus an explicit cadence runs,
  # and repeated --fault-plan flags accumulate like --scenarios.
  expect_ok "valid fault plan with cadence" \
    --maintenance-cadence-ms 25 \
    --fault-plan='crash@5:0.2,0.1;slow@2+4:0.5,0.2' baseline
  expect_ok "repeated --fault-plan accumulate" \
    --fault-plan='crash@5:0.2,0.1' --fault-plan 'partition@2+4:0.0,0.2,0.5,0.2' \
    baseline
  expect_ok "cadence zero disables maintenance"  --maintenance-cadence-ms=0 repair-vs-churn
  expect_ok "trace flags in the space form" \
    --trace-file "${workdir}/run.otrace" --queue-cadence-ms 5 baseline
  expect_help_lists --help --list --scenarios --trace-file --queue-cadence-ms \
    --maintenance-cadence-ms --fault-plan
  ;;
oscar_serve)
  expect_reject "positional argument"       firehose
  expect_reject "bare --rates"              --rates
  expect_reject "empty --rates= value"      --rates=
  expect_reject "comma-only --rates"        --rates=,,
  expect_reject "non-numeric rate"          --rates=12,abc
  expect_reject "negative rate"             --rates=-5
  expect_reject "negative rate (space form)" --rates -5
  expect_reject "bare --lookups"            --lookups
  expect_reject "zero --lookups"            --lookups=0
  expect_reject "non-numeric --lookups"     --lookups=many
  expect_reject "negative --lookups"        --lookups=-3
  expect_reject "empty --policies= value"   --policies=
  expect_reject "unknown policy"            --policies=none,bogus
  expect_reject "zero --concurrency"        --concurrency=0
  expect_reject "non-numeric --hop-ms"      --hop-ms=fast
  expect_reject "negative --timeout-ms"     --timeout-ms=-1
  expect_reject "zero --queue-cap"          --queue-cap=0
  expect_reject "zero --peer-cap"           --peer-cap=0
  expect_reject "non-numeric --hot-keys"    --hot-keys=lots
  expect_reject "negative --zipf"           --zipf=-1.1
  expect_reject "nan --hop-ms"              --hop-ms=nan
  expect_reject "inf --zipf"                --zipf=inf
  expect_reject "overflowing --hop-ms"      --hop-ms=1e999
  expect_reject "overflowing --lookups"     --lookups=99999999999999999999999
  expect_reject "space-led --lookups"       "--lookups= 5"
  expect_reject "space-led --lookups (space form)" --lookups " 5"

  expect_ok "--list-policies exits 0"  --list-policies
  # One real (tiny) run: sweep parsing end to end, including rate 0.
  expect_ok "tiny sweep runs"  --lookups=400 --rates=0,2000 --policies=none,drop-tail
  expect_ok "tiny sweep runs (space form)" \
    --lookups 400 --rates 0,2000 --policies none --trace-file "${workdir}/run.otrace"
  expect_help_lists --help --rates --lookups --policies --concurrency --hop-ms \
    --timeout-ms --queue-cap --peer-cap --hot-keys --zipf --list-policies \
    --trace-file --queue-cadence-ms
  ;;
oscar_trace)
  # A one-event trace (columnar_trace.h, little-endian): the header, one
  # block (scope 0, count 1: a `start` at 1 ms, lookup 0, peer 5, no
  # `to`, info 0) and the end frame (1 event).
  one="${workdir}/one.otrace"
  printf 'OTRC\x01\0\0\0B\0\0\0\0\x01\0\0\0\xe8\x03\0\0\0\0\0\0\x01' > "${one}"
  printf '\0\0\0\0\x05\0\0\0\xff\xff\xff\xff\0\0\0\0E\x01\0\0\0\0\0\0\0' >> "${one}"

  expect_reject "zero --time-buckets"       "${one}" --time-buckets=0
  expect_reject "oversized --time-buckets"  "${one}" --time-buckets=513
  expect_reject "zero --peer-buckets"       "${one}" --peer-buckets=0
  expect_reject "oversized --peer-buckets"  "${one}" --peer-buckets=257
  expect_reject "missing --time-buckets value" "${one}" --time-buckets
  expect_reject "no arguments"
  expect_reject "no trace file"             --csv
  expect_reject "two trace files"           "${one}" "${one}"
  # A 17-byte file whose one block declares 2^32 - 1 events: rejected
  # as corrupt before the decoder sizes anything by that count.
  forged="${workdir}/forged.otrace"
  printf 'OTRC\x01\0\0\0B\0\0\0\0\xff\xff\xff\xff' > "${forged}"
  expect_reject "block count past the file" "${forged}"

  expect_ok "summary of a one-event trace"  "${one}"
  expect_ok "--csv of a one-event trace"    "${one}" --csv
  expect_ok "--time-buckets in the space form" \
    "${one}" --time-buckets 96 --peer-buckets 24
  expect_ok "flags before the file"         --time-buckets=96 --no-heatmap "${one}"
  expect_help_lists --help --time-buckets --peer-buckets --csv --no-heatmap
  ;;
esac

if [[ "${fail}" -eq 0 ]]; then
  echo "check_cli ${tool}: all flag-parsing corners OK"
fi
exit "${fail}"
