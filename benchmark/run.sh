#!/usr/bin/env bash
# One command for the whole benchmark: builds reachserve and reachload from
# source into .bench_build/ (inside the checkout, like everything else the
# benchmark writes) and runs reachload.
#
#   benchmark/run.sh                                   # every workload, seed 1
#   benchmark/run.sh --workload embedded --seed 7 --seconds 15 --trace 0
#   benchmark/run.sh --trace 1 --workload point-http   # the traced run: layer table
#
# Arguments go to `reachload run` unchanged; see cmd/reachload/main.go.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

# The go tool keeps its caches and temp files inside the checkout too, and
# never reaches for the network or another toolchain.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# Rebuild a binary only when a source file is newer than it: the driver
# runs this script ~100 times on an unchanging checkout.
stale() {
	[ ! -x "$1" ] || [ -n "$(find "$root" -path "$out" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$1" -print -quit)" ]
}
if stale "$out/bin/reachserve"; then
	(cd "$root" && go build -o "$out/bin/reachserve" ./cmd/reachserve)
fi
if stale "$out/bin/reachload"; then
	(cd "$root/cmd/reachload" && go build -o "$out/bin/reachload" .)
fi

cd "$root"
exec "$out/bin/reachload" run -bin "$out/bin/reachserve" -workdir "$out" "$@"
