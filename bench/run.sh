#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs it with
# the arguments given, e.g.
#
#   bash bench/run.sh --workload steady_mixed --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write — Go build cache, binary, results,
# spans, profiles — stays under .bench_build/ in the checkout. The first run in
# a checkout compiles from a cold cache; later ones reuse it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export CGO_ENABLED=0

go build -o "$build/bench" ./bench
exec "$build/bench" -out "$build/out" "$@"
