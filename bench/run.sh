#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the root of the checkout (Go's caches included, so nothing
# is written outside the checkout), then runs it with the caller's arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
t0=$(date +%s.%N)
(cd "$here" && go build -o "$build/tpbench" .)
t1=$(date +%s.%N)
cd "$root"
TPBENCH_BUILD_S=$(awk -v a="$t0" -v b="$t1" 'BEGIN { printf "%.6f", b - a }') exec "$build/tpbench" "$@"
