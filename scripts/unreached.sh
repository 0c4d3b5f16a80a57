#!/usr/bin/env bash
# unreached.sh — list the internal/ functions no product binary links.
#
#   scripts/unreached.sh
#
# Builds every cmd/*, every examples/* with a main package and the
# benchmark harness with inlining off (-gcflags=all=-l, so a function that is
# linked keeps its own symbol) into a temporary directory, and feeds their
# `go tool nm` output to scripts/unreached.go. It prints each non-test
# internal/ function or method that is in no binary and not on
# scripts/unreached.allow, and each allowlist entry that no longer names one,
# and exits non-zero when it printed anything.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
cd "$repo"
bin="$(mktemp -d "${TMPDIR:-/tmp}/unreached.XXXXXX")"
trap 'rm -rf "$bin"' EXIT

for d in cmd/*/ examples/*/; do
	ls "$d"*.go >/dev/null 2>&1 || continue
	go build -gcflags=all=-l -o "$bin/$(basename "$d")" "./$d"
done
(cd benchmark && go build -gcflags=all=-l -o "$bin/scanrawbench" .)

out="$(for b in "$bin"/*; do go tool nm "$b"; done |
	go run scripts/unreached.go -allow scripts/unreached.allow)"
if [ -n "$out" ]; then
	echo "$out"
	exit 1
fi
