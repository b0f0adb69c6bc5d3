#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload sim-arrivals --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Every file the Go toolchain writes
# (build cache, temporary files, the binary) stays under the build
# directory, $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOMODCACHE=$out/gomod \
	XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
