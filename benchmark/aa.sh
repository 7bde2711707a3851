#!/usr/bin/env bash
# A/A check: does the benchmark agree with itself? Runs the whole command
# (every workload, untraced) twice per round for N rounds, alternating which
# of the two sets goes first, each round on another seed, then prints per
# workload and end-to-end metric the two medians, their spreads and the
# bound, and fails if a spread or the difference of the medians exceeds it.
#
#   benchmark/aa.sh 3          # ~1.5 minutes per round and set
#
# Results land in .bench_build/aa/{A,B}/results/; every file carries host
# metadata (nproc, GOMAXPROCS, go version, kernel, calib_ns) and the
# per-window spread of each phase.
set -euo pipefail

rounds="${1:?usage: benchmark/aa.sh ROUNDS}"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
aa="$here/../.bench_build/aa"
rm -rf "$aa"

for ((r = 1; r <= rounds; r++)); do
	if ((r % 2)); then order="A B"; else order="B A"; fi
	for side in $order; do
		echo "== round $r, set $side"
		"$here/run.sh" --seed "$((100 + r))" --trace 0 -workdir "$aa/$side" | grep -v '^{' || true
	done
done
"$here/../.bench_build/bin/reachload" spread "$aa/A" "$aa/B"
