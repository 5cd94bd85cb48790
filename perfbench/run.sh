#!/usr/bin/env bash
# Builds the daemons under test and the benchmark from this checkout, then
# runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload cluster_sparse --seed 1 --seconds 36 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod CGO_ENABLED=0

go build -o "$out/pmihp-node" ./cmd/pmihp-node >&2
go build -o "$out/pmihp-serve" ./cmd/pmihp-serve >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -bin "$out" "$@"
