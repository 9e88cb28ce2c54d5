#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it sits in and runs it
# with the given arguments, e.g.
#
#   bash bench/run.sh --workload paper_prim --seed 1 --seconds 25 --trace 0
#
# The build cache, temporary files and the binary stay in .bench_build/ at
# the checkout root, and the build never reaches the network.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
go -C "$root/bench" build -o "$out/reds-bench" .
exec "$out/reds-bench" "$@"
