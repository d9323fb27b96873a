#!/usr/bin/env bash
# Runs every workload <runs> times, seeds 1..<runs>, and stores each run's
# standard output as <dir>/<workload>.<seed>.out for --compare. Run from the
# repository root:
#
#   bash perfbench/sweep.sh results/base 10 [seconds]
set -euo pipefail
dir="$1"
runs="$2"
seconds="${3:-20}"
mkdir -p "$dir"
for seed in $(seq 1 "$runs"); do
	for w in ingest verified-read fleet; do
		bash perfbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
			>"$dir/$w.$seed.out" 2>"$dir/$w.$seed.err"
	done
done
