#!/usr/bin/env bash
# Builds the benchmark and the programs it drives from the checkout's
# source, then runs one workload:
#
#   bash ftmcbench/run.sh --workload verdict_miss --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout (Go build cache included), and the
# toolchain is kept offline: no module download, no toolchain switch.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
if [[ ! -f "$root/go.mod" || ! -f "$root/ftmcbench/go.mod" ]]; then
	echo "ftmcbench: run from the repository root (no go.mod here)" >&2
	exit 2
fi
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" # go's work dirs and telemetry
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$out/bin/" ./cmd/ftmc-serve ./cmd/ftmc-worker
(cd "$root/ftmcbench" && go build -o "$out/bin/ftmcbench" .)

exec "$out/bin/ftmcbench" --bin "$out/bin" --out "$out" "$@"
