#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#
#   bash perfbench/run.sh --workload soak --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write --
# the Go build cache and config, the binary and the traced run's span
# files -- stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -out-dir "$out" "$@"
