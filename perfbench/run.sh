#!/usr/bin/env bash
# Builds cmd/divtopkd and the benchmark driver from this checkout, then runs
# the driver with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload explore --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath" GOFLAGS=-buildvcs=false GOWORK=off GOTOOLCHAIN=local
mkdir -p "$out/bin" "$GOTMPDIR"
go build -o "$out/bin/divtopkd" ./cmd/divtopkd >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -daemon "$out/bin/divtopkd" -work "$out/work" "$@"
