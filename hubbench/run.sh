#!/usr/bin/env bash
# Builds the hub benchmark from source and runs it with the given flags:
#
#   bash hubbench/run.sh --workload inproc-uniform --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, journals, traced-run profiles and spans) stays
# under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
(cd hubbench && go build -o "$out/hubbench" .)
exec "$out/hubbench" "$@"
