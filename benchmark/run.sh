#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. The build
# cache, the binary and everything a run writes stay inside the checkout:
# .bench_build/ at its root and .work/ beside this script (-out overrides).
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/benchmark" .
exec "$build/benchmark" -out "$here/.work" "$@"
