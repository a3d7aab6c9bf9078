#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout (build cache and
# temporary files under .bench_build/, nothing outside) and runs it from
# this directory with the given arguments.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" .
exec "$build/bench" "$@"
