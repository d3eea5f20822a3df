#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and executes it.
#
#   bash perfbench/run.sh --workload sim-partition-heal --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and
# the benchmark's trace files all stay under .bench_build/ in that
# root. Without the repository's sources next to perfbench/ the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: $root holds no antientropy sources to build" >&2
	exit 2
fi
go build -C "$root/perfbench" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
