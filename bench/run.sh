#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh --workload lan3-small-w1 --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache and the binary under .bench_build/, traces and the durable
# workload's storage under bench/out/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
# A checkout git refuses to read (foreign owner) fails VCS stamping: build without the stamp.
go build -C bench -o "$build/b2b-bench" . || go build -C bench -buildvcs=false -o "$build/b2b-bench" .
exec "$build/b2b-bench" "$@"
