#!/usr/bin/env bash
# Builds the meshbench binary from the checkout's sources and runs it.
#
#   bash meshbench/run.sh --workload perm-batch --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, module cache, temporary work
# directories, toolchain telemetry) stays under .bench_build/ in the
# checkout. The build runs to completion before the benchmark starts,
# and the benchmark replaces this shell, so no process outlives the run.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/meshbench"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

cd "$root/meshbench"
go build -o "$out/meshbench" .
cd "$root"
exec "$out/meshbench" "$@"
