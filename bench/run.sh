#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it with the
# arguments given, from bench/ so that results land in bench/out/. Everything
# the build writes (Go's build cache included) stays inside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")"
build="$PWD/../.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/splidt-bench" .
exec "$build/splidt-bench" "$@"
