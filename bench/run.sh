#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from this checkout
# and runs it with the driver's arguments. Everything the build and the run
# write (Go's build cache included) stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-modcacherw GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/bench" .
exec "$build/bench" -root "$root" "$@"
