#!/usr/bin/env bash
# Builds tppd and the benchmark from this checkout's sources, then runs the
# benchmark with the given arguments. Run it from the repository root:
#
#   bash tppdbench/run.sh --workload mixed-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# checkout (Go build cache included); no network access is needed.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/tppdbench/go.mod" || ! -f "$root/go.mod" || ! -d "$root/cmd/tppd" ]]; then
	echo "tppdbench: run from the repository root (need go.mod, cmd/tppd and tppdbench/)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off GOWORK=off

go build -o "$build/tppd" ./cmd/tppd
(cd "$root/tppdbench" && go build -o "$build/tppdbench" .)
exec "$build/tppdbench" --tppd "$build/tppd" --build-dir "$build" "$@"
