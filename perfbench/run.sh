#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.  Run
# from the repository root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload jobs-local --seed 1 --seconds 20 --trace 0
#
# Build outputs, Go caches and the go command's own configuration and
# telemetry stay under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
