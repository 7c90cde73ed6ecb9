#!/usr/bin/env bash
# Builds the benchmark and gnnserve from the sources of the checkout it is
# run in, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload ts-sum-n64 --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# The go command's telemetry counters live under the user config dir.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/gnnserve" gnn/cmd/gnnserve) >&2
exec "$out/perfbench" -gnnserve "$out/gnnserve" -dir "$out/runs" "$@"
