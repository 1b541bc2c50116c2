#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's sources and runs it
# with the given arguments, from the repository root:
#
#   bash perfbench/run.sh --workload fanout --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and temporary build files stay under
# .bench_build/ in the checkout.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -d internal/broker ] || [ ! -d vendor ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and vendor/ not found)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
# Everything the go command writes (cache, temporary files, its config
# directory) stays inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS=-mod=vendor GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$out/bin/perfbench" ./perfbench
exec "$out/bin/perfbench" "$@"
