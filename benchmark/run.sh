#!/usr/bin/env bash
# Entry point of BENCHMARK.json's "command": build the benchmark from source
# inside the checkout, then run it with the driver's arguments
# (--workload NAME --seed N --seconds S --trace 0|1). Run from the root of
# the repository. Everything the build writes stays under .bench_build/.
set -euo pipefail

# Without the module there is nothing to build: say so before starting `go`.
if [[ ! -f go.mod || ! -d internal ]]; then
	echo "benchmark/run.sh: no go.mod here; run from the root of a go-ttg checkout" >&2
	exit 2
fi

build=.bench_build
export GOCACHE="$PWD/$build/gocache"
export GOPATH="$PWD/$build/gopath"
export XDG_CONFIG_HOME="$PWD/$build/config"
export GOTOOLCHAIN=local

# `go` forks a detached telemetry child on its first run against a fresh
# config directory; it outlives `go build` and nobody waits for it. Telemetry
# mode "off" (the file `go telemetry off` writes) keeps `go` from starting it.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$build/ttg-benchmark" ./benchmark
exec "$build/ttg-benchmark" "$@"
