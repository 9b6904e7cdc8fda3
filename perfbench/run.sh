#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in, then runs
# one workload:
#
#	bash perfbench/run.sh --workload coldstart --seed 1 --seconds 30 --trace 0
#
# Every build artifact (binary, Go build cache, temporary files) stays under
# .bench_build/ at the checkout root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
