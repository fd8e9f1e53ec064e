#!/usr/bin/env bash
# Builds the benchmark runner from perfbench/ and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload fleet-replay --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under $CARGO_TARGET_DIR (default
# .bench_build) in the checkout, the Go build cache included.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
  /*) ;;
  *) out="$PWD/$out" ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

go -C perfbench build -buildvcs=false -o "$out/perfbench" ./cmd/perfbench
exec "$out/perfbench" "$@"
