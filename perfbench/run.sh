#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs one workload.
# Run from the repository root:
#   bash perfbench/run.sh --workload tcp-bulk --seed 1 --seconds 15 --trace 0
# Build output, the Go build cache and span JSONL all stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
