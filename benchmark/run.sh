#!/usr/bin/env bash
# The benchmark's command (see BENCHMARK.json): builds ./benchmark from
# source and runs it with the given arguments. Run it from the repo root.
# Everything it writes — Go's build cache, the binary, a traced run's span
# file — goes under benchmark/.bench_build/, which git ignores.
set -euo pipefail
build="$PWD/benchmark/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
