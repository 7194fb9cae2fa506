#!/usr/bin/env bash
# Launcher named by BENCHMARK.json: builds the benchmark program from
# source into the checkout's .bench_build directory and runs it with the
# arguments given. Everything the Go toolchain writes (build cache, temp
# files) is kept inside the checkout too. Run from the checkout root:
#
#   bash bench/run.sh --workload embedded-fanout --seed 1 --seconds 26 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin" "$build/config"
# XDG_CONFIG_HOME moves the toolchain's own config and counter files.
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" GOTOOLCHAIN=local XDG_CONFIG_HOME="$build/config"

go -C "$root/bench" build -o "$build/bin/unibench" .
cd "$root"
exec "$build/bin/unibench" "$@"
