#!/usr/bin/env bash
# Builds the perfbench harness from this checkout's sources and runs one
# workload from the checkout root:
#
#   bash perfbench/run.sh --workload attest-lx240t --seed 1 --seconds 20 --trace 0
#
# Every build artifact (binary, Go build cache) and every file a run
# writes stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$here" && go build -buildvcs=false -o "$out/perfbench-bin" .)
cd "$root"
exec "$out/perfbench-bin" "$@"
