#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout root and
# runs it there. Everything the build writes (Go build cache, temp files, the
# binary) and everything the run writes (WAL data directories) stays under
# .bench_build/, so the benchmark reads and writes only inside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/rls-benchmark" .)
cd "$root"
exec "$build/rls-benchmark" -workdir "$build" "$@"
