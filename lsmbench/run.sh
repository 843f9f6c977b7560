#!/usr/bin/env bash
# Builds the programs under test (lsmgen, lsmcal, lsmserve) and the
# benchmark from this checkout, then runs the benchmark:
#
#   bash lsmbench/run.sh --workload generate --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build products, the Go build cache
# and the benchmark's scratch files all stay under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/lsmgen" ]; then
	echo "lsmbench: run from the repository root (no go.mod or cmd/lsmgen here)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$build/bin/" ./cmd/lsmgen ./cmd/lsmcal ./cmd/lsmserve
go -C lsmbench build -o "$build/bin/lsmbench" .
exec "$build/bin/lsmbench" -bin "$build/bin" -work "$build/work" "$@"
