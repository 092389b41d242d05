#!/usr/bin/env bash
# Builds the benchmark with the Go toolchain and runs it from the repository
# root. Everything the build writes (binaries and Go's build cache) goes under
# .bench_build in the checkout, so a run touches nothing outside it and needs
# no $HOME. All arguments are passed on; see README.md.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
cd "$root"
go build -C benchmark -o "$out/pama-benchmark" .
exec "$out/pama-benchmark" "$@"
