#!/usr/bin/env bash
# Non-test code lines per package directory: non-blank lines that do not
# start with // in .go files other than *_test.go. This is the rule the
# ROADMAP's "net non-test LOC is tracked" and the issues' line budgets use.
#
#   scripts/loc.sh                  # every package directory, then a total
#   scripts/loc.sh internal/conf    # only the named directories
set -euo pipefail
cd "$(dirname "$0")/.."

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
