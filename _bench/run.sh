#!/usr/bin/env bash
# Builds the end-to-end benchmark and blocktri-serve from the source tree
# and runs the benchmark. Run it from the repository root:
#
#   bash _bench/run.sh --workload panel-r64 --seed 1 --seconds 20 --trace 0
#
# Build outputs and the Go build cache go to .bench_build/ so that nothing
# is written outside the tree.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/blocktri-serve || ! -f _bench/go.mod ]]; then
	echo "run.sh: run from the repository root (go.mod, cmd/blocktri-serve and _bench/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/blocktri-serve" ./cmd/blocktri-serve
(cd _bench && go build -o "$out/bench" .)
exec "$out/bench" -serve-bin "$out/blocktri-serve" "$@"
