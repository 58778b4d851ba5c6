#!/usr/bin/env bash
# Builds simbench from this checkout's sources into .bench_build/simbench and
# runs it with the given arguments. Run from the repository root, e.g.
#
#   bash simbench/run.sh --workload frame-sus --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the go command's configuration
# (telemetry counters included) stay under .bench_build, and the toolchain is
# kept local and offline: the module has no dependencies beyond the
# repository's own packages.
set -euo pipefail
out=.bench_build/simbench
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$PWD/$out/gocache" GOTMPDIR="$PWD/$out/tmp" GOMODCACHE="$PWD/$out/modcache" \
	XDG_CONFIG_HOME="$PWD/$out/config" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off \
	GOWORK=off GOENV=off
go -C simbench build -o "../$out/simbench" .
exec "$out/simbench" "$@"
