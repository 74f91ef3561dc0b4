#!/usr/bin/env bash
# Builds ndbench from the checkout's sources and runs it with the given
# arguments. Run from the repository root. Everything the build and the run
# write stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOENV=off
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=-mod=readonly
export GOPROXY=off

(cd "$root/bench" && go build -o "$build/ndbench" ./cmd/ndbench)
exec "$build/ndbench" "$@"
