#!/bin/sh
# Runs the full evaluation, every auxiliary experiment and the three
# scaling studies (the executor, serve and chaos-serve smoke suites at
# full size) sequentially, writing one results file per run under
# results/ (gitignored; the studies' BENCH_*.json summaries at the repo
# root are the committed artifacts). Execute on an otherwise idle
# machine: wall-clock execution times are part of the measurements.
set -e
cd "$(dirname "$0")/.."
cargo build --release -p cardbench-bench
mkdir -p results
failed=""
# `all` first: it leaves cardbench_results.json for `observations`.
for report in all observations ablation cost-alignment noise-sensitivity \
              optimizer-shapes rd3-calibration update-scaling workload-shift; do
  status=0
  target/release/cardbench report "$report" > "results/$report.txt" 2> "results/$report.log" || status=$?
  # `observations` exits 1 when a finding does not reproduce, which a
  # small scale may show; any other non-zero status is a failed report.
  if [ "$status" -ne 0 ] && ! { [ "$report" = observations ] && [ "$status" -eq 1 ]; }; then
    failed="$failed $report"
  fi
done
for suite in executor serve chaos-serve; do
  target/release/cardbench smoke "$suite" > "results/smoke_$suite.txt" 2>&1
done
if [ -n "$failed" ]; then
  echo "failed reports:$failed (stderr under results/<report>.log)" >&2
  exit 1
fi
echo "all runs complete (per-run output under results/)"
