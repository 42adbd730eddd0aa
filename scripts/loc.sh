#!/usr/bin/env bash
# Non-test code lines per package directory: non-blank lines that do not
# start with // in .go files other than *_test.go. This is the rule the
# ROADMAP's "net non-test LOC is tracked" and the issues' line budgets use.
#
#   scripts/loc.sh                  # every package directory, then a total
#   scripts/loc.sh internal/conf    # only the named directories
#   scripts/loc.sh --check          # as the first, and fail if the total
#                                   # exceeds the one in scripts/loc_baseline
#
# The baseline is a ratchet: a PR that shrinks the tree lowers it to the new
# total, and one that has to grow it raises it in the same change, where the
# growth is reviewed.
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
if [ "${1:-}" = "--check" ]; then
  check=1
  shift
fi
dirs=("$@")
if [ ${#dirs[@]} -eq 0 ]; then
  mapfile -t dirs < <(git ls-files '*.go' | grep -v -e '_test\.go$' -e /testdata/ | xargs -n1 dirname | sort -u)
fi
total=0
for d in "${dirs[@]}"; do
  files=$(find "$d" -maxdepth 1 -name '*.go' ! -name '*_test.go')
  [ -n "$files" ] || continue
  n=$(cat $files | grep -cvE '^[[:space:]]*($|//)' || true)
  printf '%6d  %s\n' "$n" "$d"
  total=$((total + n))
done
printf '%6d  total\n' "$total"
if [ "$check" = 1 ]; then
  baseline=$(cat scripts/loc_baseline)
  if [ "$total" -gt "$baseline" ]; then
    echo "loc: total $total exceeds the baseline $baseline (scripts/loc_baseline)" >&2
    exit 1
  fi
  echo "loc: total $total within the baseline $baseline" >&2
fi
