#!/usr/bin/env bash
# Golden-output gate, run under ctest:
#
#   scripts/check_golden.sh GOLDEN COMPILER_ID COMMAND [ARGS...]
#
# Runs COMMAND in the current directory. It must exit 0: for a harness
# that means every shape check passed. Its stdout must then equal the
# GOLDEN file byte for byte; on a mismatch the first 40 diff lines go
# to stderr. GOLDEN's directory holds a TOOLCHAIN stamp (the compiler id
# and `getconf GNU_LIBC_VERSION` that printed the goldens). A mismatch
# fails only when COMPILER_ID (CMake's OSCAR_COMPILER_ID) and the
# running libc match the stamp. Under any other toolchain it is
# reported and passes, since other toolchains are not known to print
# the same bytes.
#
# To re-baseline, regenerate the golden files and commit them; the diff
# is the record (README "Golden outputs").

set -euo pipefail

golden="${1:?usage: check_golden.sh GOLDEN COMPILER_ID COMMAND [ARGS...]}"
compiler="${2?missing compiler id}"
shift 2
[[ $# -gt 0 ]] || { echo "check_golden.sh: missing command" >&2; exit 2; }

actual="$(mktemp)"
trap 'rm -f "${actual}"' EXIT

status=0
"$@" > "${actual}" || status=$?
if [[ "${status}" -ne 0 ]]; then
  cat "${actual}"  # The run's own report, e.g. its VIOLATED lines.
  echo "FAIL $(basename "$1"): exit=${status}, want 0" >&2
  exit "${status}"
fi

if [[ ! -f "${golden}" ]]; then
  echo "FAIL: no golden file ${golden}" >&2
  exit 1
fi
if cmp -s "${golden}" "${actual}"; then
  echo "golden OK: $(basename "${golden}")"
  exit 0
fi

echo "golden MISMATCH: $(basename "${golden}") (first 40 diff lines," \
     "golden then actual)" >&2
# diff exits 1 on a difference; keep it from tripping errexit.
diff "${golden}" "${actual}" | head -40 >&2 || true

stamp="$(dirname "${golden}")/TOOLCHAIN"
running="compiler=${compiler} libc=$(getconf GNU_LIBC_VERSION 2>/dev/null || echo unknown)"
stamped="$(grep -E '^(compiler|libc)=' "${stamp}" 2>/dev/null | paste -sd ' ' || true)"
if [[ "${running}" == "${stamped}" ]]; then
  exit 1
fi
echo "golden mismatch not fatal: running toolchain '${running}' differs" \
     "from the stamp '${stamped}'" >&2
exit 0
