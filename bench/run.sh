#!/bin/sh
# Entry point named by BENCHMARK.json. Run from the root of the tree under
# test: builds the harness from source into .bench_build/ and hands it the
# arguments; the harness builds ./cmd/apqd the same way. The Go build cache
# and GOPATH are pointed into .bench_build/ too, so nothing is written outside
# the checkout.
set -eu
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOTOOLCHAIN=local
go build -C "$root/bench" -o "$root/.bench_build/bench" .
exec "$root/.bench_build/bench" "$@"
