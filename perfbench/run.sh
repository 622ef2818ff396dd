#!/usr/bin/env bash
# Builds the reference benchmark from source and runs it; every argument
# is passed on. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload record-mem --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh steady -runs 10 -seconds 15
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
