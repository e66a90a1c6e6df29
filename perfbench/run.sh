#!/usr/bin/env bash
# Builds bufferkitd and the benchmark from this checkout, then runs the
# benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload industrial --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build product and cache lands in
# .bench_build/ so nothing outside the checkout is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root (go.mod not found)" >&2
	exit 2
fi
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	GOPROXY=off GOSUMDB=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/bufferkitd" bufferkit/cmd/bufferkitd)
exec "$out/perfbench" -bufferkitd "$out/bufferkitd" -out "$out" "$@"
