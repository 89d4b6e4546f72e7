#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout this script sits in
# and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write lands in .bench_build/ at the
# checkout root: the Go build cache, the binary, the clusters' temporary
# disk stores and the span dumps of traced runs.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --work "$build" "$@"
