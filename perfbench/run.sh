#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it
# with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload replay-campus-npod --seed 42 --seconds 10 --trace 0
#
# Every build product, the Go build cache and the benchmark's scratch
# files (unix socket, span dumps) stay under .bench_build/ in the
# checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
