#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash madbench/run.sh --workload batch-study --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f madbench/go.mod ]]; then
	echo "madbench: run from the root of a checkout of the repository" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/home" "$out/tmp" "$out/gocache" "$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off CGO_ENABLED=0

(cd madbench && go build -o "$out/madbench" .)
exec "$out/madbench" --out "$out/madbench-run" "$@"
