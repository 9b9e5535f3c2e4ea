//! The three scaling studies no `benchmark/` workload can express, run
//! as the `executor`, `serve` and `chaos-serve` smoke suites: executor
//! kernels over 10^3..4·10^6 rows, the estimation service over 1..64
//! sessions, and the five-phase chaos storm. Timings are plain
//! `std::time` medians; each study leaves its summary in
//! `BENCH_<name>.json` at the repository root. `CARDBENCH_FAST=1` runs
//! the smallest points once and writes nothing.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cardbench_support::json::Json;

pub mod chaos;
pub mod executor;
pub mod serve;

/// Median seconds per call of `f` over `samples` timed batches. The
/// batch size doubles until one batch takes at least 2 ms, so short
/// kernels are timed over many calls; those sizing batches are also the
/// warm-up.
fn median_secs<R>(samples: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut batch = |iters: u32| {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        t0.elapsed()
    };
    let mut iters = 1u32;
    while batch(iters) < Duration::from_millis(2) && iters < (1 << 20) {
        iters *= 2;
    }
    let mut per_call: Vec<f64> = (0..samples)
        .map(|_| batch(iters).as_secs_f64() / f64::from(iters))
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[per_call.len() / 2]
}

/// Writes `BENCH_<name>.json` at the repository root, or, smoke-sized,
/// says why not.
fn write_summary(smoke: bool, name: &str, summary: Json) {
    let file = format!("BENCH_{name}.json");
    if smoke {
        println!("smoke mode (CARDBENCH_FAST=1): not writing {file}");
        return;
    }
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(file);
    std::fs::write(&path, summary.pretty()).expect("write the study summary");
    println!("wrote {}", path.display());
}
