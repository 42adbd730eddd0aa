#!/usr/bin/env bash
# The benchmark's sim_digest on every workload of BENCHMARK.json (the list
# in the loop below mirrors its "workloads") at a smoke scale and two seeds:
# a hash of everything the simulated clock can see, so a change to host-side
# code — a refactor, an optimisation — must leave all of them where they are.
#
#   scripts/sim_digests.sh           # print "<workload> <seed> <digest>" lines
#   scripts/sim_digests.sh --check   # and fail unless they equal scripts/sim_digests,
#                                    # or unless one traced run per workload passes
#
# The traced run (--trace 1) wraps the KV manager and the allocator the way
# the benchmark's per-layer breakdown does; it fails unless its digest equals
# the untraced one and no layer's self time is negative.
#
# After an intended change to a simulated number, rerecord with
# scripts/sim_digests.sh > scripts/sim_digests and say why in the change.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp)
out=$(mktemp -d)
trap 'rm -rf "$bin" "$out"' EXIT
go build -o "$bin" ./benchmark
workloads="serve-1m fleet-64 kv-gmlake sessions-chaos train-lro"
smoke=(--seconds 0.2 --scale 0.02)
got=$(for w in $workloads; do
  for seed in 7 11; do
    "$bin" --workload "$w" --seed "$seed" "${smoke[@]}" --trace 0 |
      awk -v w="$w" -v s="$seed" '$1 == "sim_digest" { print w, s, $2; n++ } END { exit n != 1 }' || exit 1
  done
done)
echo "$got"
if [ "${1:-}" = "--check" ]; then
  if ! diff <(echo "$got") scripts/sim_digests >&2; then
    echo "sim_digests: check FAILED: simulated behaviour moved (< this tree, > scripts/sim_digests)" >&2
    exit 1
  fi
  for w in $workloads; do
    if ! "$bin" --workload "$w" --seed 7 "${smoke[@]}" --trace 1 --out "$out" >"$out/log" 2>&1; then
      cat "$out/log" >&2
      echo "sim_digests: check FAILED: traced $w run" >&2
      exit 1
    fi
  done
fi
