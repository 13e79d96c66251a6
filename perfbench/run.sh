#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# for example:
#   bash perfbench/run.sh --workload hotspot-steady --seed 1 --seconds 20 --trace 0
# Run from the repository root. Build outputs, the Go build cache and
# trace files stay under .bench_build in that directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
