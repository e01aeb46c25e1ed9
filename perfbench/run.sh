#!/usr/bin/env bash
# Builds the benchmark from the source tree it is run in, then runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload negotiator-hadoop --seed 1 --seconds 25 --trace 0
#
# Every file the toolchain writes (build cache, temporary files, telemetry
# counters under the config directory, the binary) stays under .bench_build/
# in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=

go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
