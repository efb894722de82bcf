#!/usr/bin/env bash
# Builds exobench from source and runs it with the given flags. Run it from
# the repository root:
#
#   bash cmd/exobench/bench.sh --workload matmul --seed 1 --seconds 24 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at the
# root: the Go build cache, the module cache, the tool configuration and the
# binary. The build fails, and nothing is run, outside a full checkout of the
# repository, because the module's replace directive needs the root go.mod.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C cmd/exobench build -buildvcs=false -o "$out/exobench" .
exec "$out/exobench" "$@"
