#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Every build artifact (binary, Go build
# cache) stays under .bench_build/ in the current directory; build output
# goes to standard error so the last line of standard output is the result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod not found)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
