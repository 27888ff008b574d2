#!/usr/bin/env bash
# Builds the serving benchmark from this checkout's sources and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload table-uniform --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write —
# the Go build cache, the binary, sockets, span files — goes under
# .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
