#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload mice --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (the binary,
# Go's build cache, span files) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench.tmp" .)
mv "$out/perfbench.tmp" "$out/perfbench"
exec "$out/perfbench" "$@"
