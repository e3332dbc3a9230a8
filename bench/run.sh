#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Everything the go command leaves behind (build cache, work directories,
# telemetry counters, the binary) goes to .bench_build/ under the
# checkout root; nothing outside the checkout is written.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/bench" -o "$build/fortd-bench" .
exec "$build/fortd-bench" "$@"
