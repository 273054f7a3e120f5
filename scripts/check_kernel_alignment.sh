#!/usr/bin/env bash
# Placement guard for the routing kernels:
#
#   scripts/check_kernel_alignment.sh [build/oscar_serve]
#
# Both hop kernels are declared 64-byte aligned in
# src/routing/route_stepper.h, and this script checks all four of their
# instantiations: GreedyStepper::StepOn<TopologySnapshot>, the CSR
# greedy hop that serve spends its time in;
# BacktrackingStepper::StepOn<Network>, the live hop the message engine
# routes with; GreedyStepper::StepOn<Network>, the live greedy hop of
# the samplers' fallback routes (grow, churn repair); and
# BacktrackingStepper::StepOn<TopologySnapshot>. With their code
# unchanged, a 16-byte shift caused by unrelated changes cost serve 11%
# and sim-steady about 4%. gcc drops the attribute without a word when
# it sits where gcc ignores it (on the out-of-class template
# definition), so this script reads each kernel's address from the
# binary (any tool linking the routing code) and fails unless it is a
# multiple of 64.

set -euo pipefail

binary="${1:-build/oscar_serve}"
kernels=(
  'oscar::GreedyStepper::StepOn<oscar::TopologySnapshot>(oscar::TopologySnapshot const&)'
  'oscar::BacktrackingStepper::StepOn<oscar::Network>(oscar::Network const&)'
  'oscar::GreedyStepper::StepOn<oscar::Network>(oscar::Network const&)'
  'oscar::BacktrackingStepper::StepOn<oscar::TopologySnapshot>(oscar::TopologySnapshot const&)'
)

if [[ ! -f "${binary}" ]]; then
  echo "FAIL no such binary: ${binary}" >&2
  exit 1
fi

fail=0
for kernel in "${kernels[@]}"; do
  # nm -C prints "<address> <type> <return type> <name>"; the kernel is
  # the one symbol whose demangled text ends in its full signature.
  mapfile -t addresses < <(nm -C "${binary}" |
    grep -F " ${kernel}" | grep -v -F '[clone' | cut -d' ' -f1)
  if [[ ${#addresses[@]} -ne 1 ]]; then
    echo "FAIL expected one ${kernel} in ${binary}," \
      "found ${#addresses[@]}" >&2
    fail=1
    continue
  fi
  offset=$(( 16#${addresses[0]} % 64 ))
  if [[ ${offset} -ne 0 ]]; then
    echo "FAIL ${kernel} at 0x${addresses[0]}, ${offset} bytes past a" \
      "64-byte boundary" >&2
    fail=1
    continue
  fi
  echo "ok: ${kernel} at 0x${addresses[0]} (64-byte aligned)"
done
exit "${fail}"
