#!/usr/bin/env bash
# Builds ebmfbench from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash ebmfbench/run.sh --workload cold-paper --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, scratch stores, span files) stays under
# .bench_build/ in that directory.
set -euo pipefail

out="$(pwd)/.bench_build"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -o "$out/ebmfbench" .)
exec "$out/ebmfbench" "$@"
