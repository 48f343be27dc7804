#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 10 --trace 0
#
# Run from the root of the checkout. Build outputs and every cache the
# go command keeps stay inside the checkout, under $CARGO_TARGET_DIR
# when set and .bench_build otherwise.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"

# The go command's own config and telemetry live under XDG_CONFIG_HOME.
export GOCACHE=$out/gocache GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
