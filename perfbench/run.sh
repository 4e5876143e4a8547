#!/usr/bin/env bash
# Builds cmd/heteromap and the benchmark from the tree under test, then
# runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-direct --seed 1 --seconds 30 --trace 0
#
# Every build product, Go cache and temporary file stays under
# .bench_build in the working directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export TMPDIR="$out/tmp" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

go build -o "$out/heteromap" ./cmd/heteromap
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -heteromap "$out/heteromap" -work "$out/run" "$@"
