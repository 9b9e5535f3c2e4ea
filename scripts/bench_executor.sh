#!/bin/sh
# Measures the executor's kernels and leaves a machine-readable summary
# in BENCH_executor.json at the repo root: the flat open-addressing hash
# join vs the pre-vectorization HashMap baseline (plus merge and INL) at
# build sides of 10^3..10^6 rows, count-only vs both-sides roots at
# 10^5..4*10^6 output rows, radix vs comparison sort of (key, row) pairs
# at 10^4..4*10^6 rows, and a warm vs a fresh ExecScratch arena.
# Run on an otherwise idle machine.
set -e
cd "$(dirname "$0")/.."
cargo bench -p cardbench-bench --bench executor
echo "--- BENCH_executor.json ---"
cat BENCH_executor.json
