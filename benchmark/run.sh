#!/usr/bin/env bash
# Entry point for the benchmark driver (see BENCHMARK.json at the repository
# root): builds the harness from this checkout's source and runs it with the
# arguments given. Everything the Go toolchain and the benchmark write — build
# cache, binaries, temp data-dirs — is kept under .bench_build/ in the
# checkout, so a run touches nothing outside it.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod TMPDIR="$build/tmp"
(cd "$here" && go build -o "$build/bin/scanrawbench" .)
cd "$root"
exec "$build/bin/scanrawbench" "$@"
