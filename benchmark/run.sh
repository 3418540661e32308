#!/usr/bin/env bash
# Builds the benchmark from source into the checkout's .bench_build
# directory and runs it from the repository root. Everything the build
# writes (Go build cache included) stays inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/go-cache GOTOOLCHAIN=local
go build -C benchmark -o "$build/amrt-benchmark" .
exec "$build/amrt-benchmark" "$@"
