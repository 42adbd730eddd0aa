#!/usr/bin/env bash
# The benchmark's sim_digest on every workload of BENCHMARK.json (the list
# in the loop below mirrors its "workloads") at a smoke scale: a hash of
# everything the simulated clock can see, so a change to host-side code — a
# refactor, an optimisation — must leave all of them where they are (≈ 3 s
# for the five).
#
#   scripts/sim_digests.sh           # print "<workload> <digest>" lines
#   scripts/sim_digests.sh --check   # and fail unless they equal scripts/sim_digests
#
# After an intended change to a simulated number, rerecord with
# scripts/sim_digests.sh > scripts/sim_digests and say why in the change.
set -euo pipefail
cd "$(dirname "$0")/.."

bin=$(mktemp)
trap 'rm -f "$bin"' EXIT
go build -o "$bin" ./benchmark
got=$(for w in serve-1m fleet-64 kv-gmlake sessions-chaos train-lro; do
  "$bin" --workload "$w" --seed 7 --seconds 0.2 --scale 0.02 --trace 0 |
    awk -v w="$w" '$1 == "sim_digest" { print w, $2; n++ } END { exit n != 1 }' || exit 1
done)
echo "$got"
if [ "${1:-}" = "--check" ] && ! diff <(echo "$got") scripts/sim_digests >&2; then
  echo "sim_digests: check FAILED: simulated behaviour moved (< this tree, > scripts/sim_digests)" >&2
  exit 1
fi
