#!/usr/bin/env bash
# Builds the benchmark from the checkout this script sits in and runs
# it, passing every argument through:
#
#   bash perfbench/run.sh --workload paper-eval --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache, daemon stores and span files all stay
# under .bench_build/ at the root of the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-buildvcs=false
go -C "$root/perfbench" build -trimpath -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" --workdir "$out" "$@"
