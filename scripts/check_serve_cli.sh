#!/usr/bin/env bash
# Flag-parsing contract test for the oscar_serve CLI, run under ctest
# (the PR 4 standard: every malformed invocation exits 2 AND prints the
# usage text on stderr; the accepted corners keep their documented
# behavior).
#
#   scripts/check_serve_cli.sh path/to/oscar_serve
#
# The rejections short-circuit before any growth, and the one accepted
# full run is pinned to a tiny scale, so the whole probe stays cheap.

set -euo pipefail

serve="${1:?usage: check_serve_cli.sh path/to/oscar_serve}"
export OSCAR_BENCH_SIZE=48 OSCAR_BENCH_SEED=42
unset OSCAR_BENCH_SCALE 2>/dev/null || true

fail=0

# expect_reject <label> <args...>: exit must be 2, stderr must carry the
# usage text. (The || capture keeps the expected-nonzero probe from
# tripping errexit.)
expect_reject() {
  local label="$1"
  shift
  local err status=0
  err=$("${serve}" "$@" 2>&1 >/dev/null) || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "FAIL ${label}: exit=${status}, want 2 (args: $*)" >&2
    fail=1
  fi
  if ! grep -q "^usage: oscar_serve" <<< "${err}"; then
    echo "FAIL ${label}: no usage line on stderr (args: $*)" >&2
    fail=1
  fi
}

# expect_ok <label> <args...>: exit must be 0.
expect_ok() {
  local label="$1"
  shift
  if ! "${serve}" "$@" >/dev/null 2>&1; then
    echo "FAIL ${label}: nonzero exit (args: $*)" >&2
    fail=1
  fi
}

expect_reject "unknown flag"              --frobnicate
expect_reject "positional argument"       firehose
expect_reject "bare --rates"              --rates
expect_reject "empty --rates= value"      --rates=
expect_reject "comma-only --rates"        --rates=,,
expect_reject "non-numeric rate"          --rates=12,abc
expect_reject "negative rate"             --rates=-5
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
expect_reject "empty --trace-file= value" --trace-file=
expect_reject "duplicate --trace-file"    --trace-file=a.csv --trace-file=b.csv
expect_reject "bogus --trace-format"      --trace-file=a --trace-format=xml
expect_reject "--trace-format alone"      --trace-format=csv
expect_reject "negative --queue-cadence-ms" --queue-cadence-ms=-1
expect_reject "nan --hop-ms"              --hop-ms=nan
expect_reject "inf --zipf"                --zipf=inf
expect_reject "overflowing --hop-ms"      --hop-ms=1e999
expect_reject "overflowing --lookups"     --lookups=99999999999999999999999
expect_reject "space-led --lookups"       "--lookups= 5"

expect_ok "--help exits 0"           --help
expect_ok "--list-policies exits 0"  --list-policies
# One real (tiny) run: sweep parsing end to end, including rate 0.
expect_ok "tiny sweep runs"  --lookups=400 --rates=0,2000 --policies=none,drop-tail

if [[ "${fail}" -eq 0 ]]; then
  echo "check_serve_cli: all flag-parsing corners OK"
fi
exit "${fail}"
