#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the repository root:
#
#   bash aimdbench/run.sh --workload events_read --seed 1 --seconds 30 --trace 0
#
# Build outputs and the Go build cache stay under .bench_build/.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
(cd "$root/aimdbench" && go build -o "$out/aimdbench" .)
exec "$out/aimdbench" "$@"
