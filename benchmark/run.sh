#!/usr/bin/env bash
# The driver's command: build the benchmark from source inside the checkout,
# then run it with the driver's arguments. Everything the build writes —
# the Go build cache included — stays under .bench_build/ in the checkout.
# Build time is measured here and reported as bench.build_s; it is not part
# of setup_s, which starts with the benchmark process.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOFLAGS="${GOFLAGS:-} -buildvcs=false"
start=$(date +%s.%N)
go build -o "$build/mptcpsim-benchmark" ./benchmark
BENCH_BUILD_S=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.3f", b - a }')
export BENCH_BUILD_S
exec "$build/mptcpsim-benchmark" "$@"
