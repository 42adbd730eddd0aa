#!/usr/bin/env bash
# Fails when a listed package compiles to a fused multiply-add on arm64.
# Go may fuse x*y + z into one instruction that rounds once instead of twice
# (FMADDD, FMSUBD, FNMADDD, FNMSUBD); amd64 builds do not, so a fused line
# computes different bits on arm64 than on amd64 and breaks the determinism
# contract across machines. An explicit float64(x*y) conversion rounds the
# product and blocks the fusion.
#
#   scripts/fma_check.sh ./internal/servegen [package…]
#
# The listing is the compiler's own (-gcflags=-S applies to the named
# packages only), and the build cache replays it, so the check holds on a
# warm cache too. -o /dev/null discards what the build links, so a lone main
# package neither collides with its own directory nor leaves a binary behind.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
  echo "usage: scripts/fma_check.sh <package>…" >&2
  exit 2
fi
if ! listing=$(GOARCH=arm64 go build -o /dev/null -gcflags=-S "$@" 2>&1); then
  grep -v '^[[:space:]]' <<<"$listing" | tail -20 >&2
  echo "fma: the arm64 build of $* failed" >&2
  exit 1
fi
fused=$(grep -E 'F(N)?M(ADD|SUB)D' <<<"$listing" || true)
if [ -n "$fused" ]; then
  echo "fma: fused multiply-adds in the arm64 build of $*:" >&2
  sed -E 's/^[^(]*\(([^)]*)\)[[:space:]]*/  \1  /' <<<"$fused" >&2
  exit 1
fi
echo "fma: no fused multiply-add in the arm64 build of $*" >&2
