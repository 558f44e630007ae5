#!/usr/bin/env bash
# Builds the benchmark from the repository source and runs it. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload web-ranks --seed 1 --seconds 30 --trace 0
#
# The build, its cache and the benchmark's outputs stay in
# $CARGO_TARGET_DIR (default .bench_build) under the current directory.
set -euo pipefail
root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd "$(dirname "$0")" && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
