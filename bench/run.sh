#!/usr/bin/env bash
# Builds disebench and the cmd/dised daemon from this checkout's sources and
# runs one benchmark invocation with the given arguments, e.g.
#
#   bash bench/run.sh --workload pairwise --seed 1 --seconds 18 --trace 0
#
# Run it from the repository root. Everything it builds or writes (binaries,
# the Go build cache, the go command's config and telemetry files, daemon
# port files, span files) goes under .bench_build/ in the current directory,
# so the first run compiles the standard library once; GOPROXY=off and
# GOTOOLCHAIN=local keep the go command from fetching anything.
set -euo pipefail

if [[ ! -f go.mod || ! -f bench/go.mod ]]; then
	echo "run.sh: run from the repository root (needs go.mod and bench/go.mod)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

(cd bench && go build -o "$out/disebench" . && go build -o "$out/dised" dise/cmd/dised)
exec "$out/disebench" -dised "$out/dised" -work "$out" "$@"
