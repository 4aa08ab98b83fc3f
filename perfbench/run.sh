#!/usr/bin/env bash
# Builds the spnet benchmark from the checkout's sources and runs it.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload search --seed 1 --seconds 20 --trace 0
# Build outputs and the Go build cache stay under .bench_build/ in the
# checkout, and the build never reaches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/spnetbench" .) >&2
exec "$out/spnetbench" "$@"
