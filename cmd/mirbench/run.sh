#!/usr/bin/env bash
# Builds mirbench from source into .bench_build/ and runs it with the
# given arguments. Run it from the repository root, e.g.
#
#   bash cmd/mirbench/run.sh -workload all -seed 1 -out run.jsonl
#
# Every file the build and the run write (Go build cache, temporary
# build files, fleet journals) stays under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "run.sh: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

(cd cmd/mirbench && go build -o "$out/mirbench" .)
exec "$out/mirbench" "$@"
