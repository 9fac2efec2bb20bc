#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload paper-sweep --seed 1 --seconds 15 --trace 0
#
# Run from the root of the repository. Everything the build writes (Go
# build cache, temporary files, the binary, traces) stays under
# .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

# The Go tool's cache, module path, temporary files and its per-user
# configuration (telemetry counters) all stay inside the build directory.
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out/trace" "$@"
