#!/usr/bin/env bash
# The benchmark's single entry point (BENCHMARK.json's command). It keeps
# everything the Go toolchain writes — build cache, linked binary, temp
# files, its telemetry mode file — under .bench_build in the checkout, then
# runs ./bench with the arguments given. Run from the repository root.
set -euo pipefail
if [ ! -f go.mod ]; then
	echo "bench/run.sh: no go.mod in $PWD: the program's source is not here, nothing to measure" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config/go/telemetry"
# Telemetry off, or the go command leaves a detached child (its telemetry
# sidecar) running after it has exited; the mode file is what `go telemetry
# off` writes.
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$build/sieve-bench" ./bench
exec "$build/sieve-bench" "$@"
