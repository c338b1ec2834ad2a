#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it, from the
# checkout root:
#
#   bash perfbench/run.sh --workload dense-pat271 --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and Go's temporary files stay under
# .bench_build/ in the checkout root; nothing is fetched.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
