#!/usr/bin/env bash
# The command BENCHMARK.json names. Builds the benchmark from source into
# .bench_build/ at the root of the checkout, keeping the Go build cache
# and every temporary file inside the checkout, then runs it there with
# the arguments given:
#
#   bash bench/run.sh                        every workload, end-to-end metrics
#   bash bench/run.sh -trace 1               every workload, per-layer metrics
#   bash bench/run.sh -workload rpc-small    one workload
#   bash bench/run.sh -agree 3               two sets of runs must agree
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$build/clarens-bench" ./bench
exec "$build/clarens-bench" "$@"
