#!/usr/bin/env bash
# Builds the benchmark and the proxy from this checkout, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-seed --seed 1 --seconds 30 --trace 0
#
# Everything it writes stays under .bench_build/ in the checkout, the Go
# build cache included.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/schemaevo-proxy || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/schemaevo-proxy and perfbench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

go build -o "$out/schemaevo-proxy" ./cmd/schemaevo-proxy >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -proxy "$out/schemaevo-proxy" -root "$root" -work "$out/work" "$@"
