#!/bin/sh
# Runs the full evaluation, every auxiliary experiment and the three
# scaling sweeps sequentially, writing one results file per run under
# results/ (gitignored; the sweeps' BENCH_*.json summaries at the repo
# root are the committed artifacts). Execute on an otherwise idle
# machine: wall-clock execution times are part of the measurements.
set -e
cd "$(dirname "$0")/.."
cargo build --release -p cardbench-bench
mkdir -p results
# `all` first: it leaves cardbench_results.json for `observations`.
for report in all observations ablation cost-alignment noise-sensitivity \
              optimizer-shapes rd3-calibration update-scaling workload-shift; do
  target/release/cardbench report "$report" > "results/$report.txt" 2> "results/$report.log" || true
done
for sweep in executor serve chaos; do
  target/release/cardbench sweep "$sweep" > "results/sweep_$sweep.txt" 2>&1
done
echo "all runs complete (per-run output under results/)"
