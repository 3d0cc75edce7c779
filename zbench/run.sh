#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the checkout
# root and runs it with the given arguments, e.g.
#
#   bash zbench/run.sh --workload train-prolong --seed 1 --seconds 25 --trace 0
#
# Every file the Go toolchain writes (build cache, telemetry, temp files)
# stays under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS= GOTELEMETRY=off
(cd "$here" && go build -trimpath -o "$build/zbench" .)
exec "$build/zbench" "$@"
