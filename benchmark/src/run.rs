//! One run of one workload: set-up, a discarded warm-up pass, P whole
//! passes over the fixed list of N ops, and the reduction to metrics.
//! Work is fixed and time is not: N and P are constants of the workload,
//! so neither the op mix nor the sample count of a run depends on the
//! clock.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use cardbench_support::json::Json;

use crate::names::{per_layer, END_TO_END};
use crate::reduce::{median, p95, per_op_median};
use crate::trace::{chrome_trace, Profile, Tracer};
use crate::workloads::{Layers, Pass, SetupClock, Workload};

/// Set-up repetitions of an untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Seconds the constants `Workload::PASSES` are sized for on the
/// reference host; the same number as `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 10;
/// Traced passes of a traced run; as many untraced ones alternate with
/// them for the recorder's overhead.
const TRACED_PASSES: usize = 2;

/// Measured passes after each of the [`SETUP_REPS`] set-ups of an
/// untraced run. `--seconds` scales the constant P of the workload — the
/// caller's contract passes it — and nothing else does: the clock never
/// decides how much work a run measures. At least 2, so P ≥ 10.
pub fn passes_per_setup(passes: usize, seconds: u64) -> usize {
    (passes * seconds as usize / RUN_SECONDS as usize / SETUP_REPS).max(2)
}

/// What one run reports.
pub struct Outcome {
    pub workload: &'static str,
    pub ops: usize,
    pub threads: usize,
    /// Measured passes (the warm-up pass not counted).
    pub passes: usize,
    pub digest: u64,
    /// Op executions, warm-up pass included: its outputs are checked too.
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// (name, value, unit).
    pub metrics: Vec<(String, f64, &'static str)>,
}

/// Where the benchmark writes: `benchmark/out/`.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn note_failures(outcome: &mut Outcome, pass: &Pass) {
    outcome.attempted += pass.latency.len() as u64;
    outcome.failed += pass.errors.len() as u64;
    outcome.errors.extend(pass.errors.iter().cloned());
}

impl Outcome {
    /// Describes the freshly set-up `workload` and makes its warm-up
    /// pass: timing discarded, outputs checked in full.
    fn after_warm_up<W: Workload>(workload: &mut W) -> Outcome {
        let mut outcome = Outcome {
            workload: W::NAME,
            ops: workload.ops(),
            threads: W::THREADS,
            passes: 0,
            digest: workload.digest(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            metrics: Vec::new(),
        };
        if outcome.ops != W::OPS {
            outcome
                .errors
                .push(format!("{} ops built, N is {}", outcome.ops, W::OPS));
        }
        note_failures(&mut outcome, &workload.pass(true));
        outcome
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// The untraced run: the four end-to-end metrics.
///
/// The P measured passes are split evenly over the [`SETUP_REPS`] set-up
/// repetitions — set up, warm up, measure P/5 passes, tear down, and
/// again — instead of following the last repetition in one block. The
/// reference host runs a quarter faster for 1 to 10 s at a time (and
/// slower, under a neighbour's load, for as long): a single block now
/// and then falls mostly into such a stretch, while fifths spread over
/// half a minute rarely do, and the medians over passes shrug off the
/// rest. Every repetition builds the same op list, so op `i` is the
/// same op in all of them.
pub fn untraced<W: Workload>(seed: u64, seconds: u64, tracer: &'static Tracer) -> Outcome {
    let per_setup = passes_per_setup(W::PASSES, seconds);
    let (mut setups, mut walls, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Outcome> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut workload = W::setup(seed, &mut SetupClock::default(), tracer);
        setups.push(secs(t0.elapsed()));
        // The first repetition's warm-up pass makes the full checks.
        let outcome = match &mut first {
            None => first.insert(Outcome::after_warm_up(&mut workload)),
            Some(outcome) => {
                if workload.digest() != outcome.digest {
                    outcome
                        .errors
                        .push("two set-ups of one seed built different op lists".to_string());
                }
                note_failures(outcome, &workload.pass(false));
                outcome
            }
        };
        for _ in 0..per_setup {
            let pass = workload.pass(false);
            note_failures(outcome, &pass);
            walls.push(secs(pass.wall));
            latencies.push(
                pass.latency
                    .iter()
                    .map(|l| l.map(|d| secs(d) * 1e3))
                    .collect::<Vec<Option<f64>>>(),
            );
        }
        // `workload` is torn down here, before the next set-up's clock
        // starts.
    }
    let mut outcome = first.expect("SETUP_REPS is positive");
    outcome.passes = walls.len();
    let per_op = per_op_median(&latencies);
    let values = [
        median(&setups),
        outcome.ops as f64 / median(&walls),
        if per_op.is_empty() {
            0.0
        } else {
            median(&per_op)
        },
        if per_op.is_empty() { 0.0 } else { p95(&per_op) },
    ];
    outcome.metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit, _, _), v)| (name.to_string(), v, unit))
        .collect();
    outcome
}

/// The traced run: every per-layer metric, from [`TRACED_PASSES`] passes
/// with the recorder on. As many untraced passes alternate with them, so
/// the recorder's overhead is the ratio of two medians taken a pass
/// apart; the end-to-end metrics are never taken from here.
pub fn traced<W: Workload>(seed: u64, tracer: &'static Tracer) -> Outcome {
    let mut clock = SetupClock::default();
    let mut workload = W::setup(seed, &mut clock, tracer);
    let mut outcome = Outcome::after_warm_up(&mut workload);

    let mut profile = Profile::default();
    let mut for_file = Vec::new();
    let (mut plain, mut recorded) = (Vec::new(), Vec::new());
    for _ in 0..TRACED_PASSES {
        let pass = workload.pass(false);
        note_failures(&mut outcome, &pass);
        plain.push(secs(pass.wall));

        tracer.set_on(true);
        let pass = workload.pass(false);
        tracer.set_on(false);
        note_failures(&mut outcome, &pass);
        recorded.push(secs(pass.wall));
        let spans = tracer.drain();
        profile.add_pass(&spans);
        for_file.extend(spans);
    }
    outcome.passes = recorded.len();

    let mut layers = Layers::default();
    clock.layers(&mut layers);
    tracer.set_on(true);
    workload.layers(&profile, &mut layers);
    tracer.set_on(false);
    layers.put(
        "obs.trace_overhead_ratio",
        median(&recorded) / median(&plain),
    );
    for (name, unit, _) in per_layer() {
        let v = layers.take(&name);
        if !v.is_finite() {
            outcome.errors.push(format!("{name} is {v}"));
        }
        outcome.metrics.push((name, v, unit));
    }
    assert!(
        layers.names().is_empty(),
        "metrics not in the per-layer list: {:?}",
        layers.names()
    );

    let path = out_dir().join(format!("{}.trace.json", W::NAME));
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, chrome_trace(&for_file).compact()));
    if let Err(e) = written {
        outcome
            .errors
            .push(format!("trace not written to {}: {e}", path.display()));
    }
    outcome
}

impl Outcome {
    /// The run's result as the last line of standard output wants it.
    pub fn result_json(&self) -> Json {
        let metrics = self.metrics.iter().map(|(name, v, unit)| {
            (
                name.clone(),
                Json::object([
                    ("value", Json::Number(*v)),
                    ("unit", Json::String(unit.to_string())),
                ]),
            )
        });
        Json::object([
            ("correct", Json::Bool(self.errors.is_empty())),
            ("attempted", Json::Number(self.attempted as f64)),
            ("failed", Json::Number(self.failed as f64)),
            ("metrics", Json::object(metrics)),
        ])
    }

    /// What a run says about its inputs, for the suite's host record.
    pub fn info_json(&self, seed: u64) -> Json {
        Json::object([
            ("workload", Json::String(self.workload.to_string())),
            ("seed", Json::Number(seed as f64)),
            ("ops", Json::Number(self.ops as f64)),
            ("passes", Json::Number(self.passes as f64)),
            ("threads", Json::Number(self.threads as f64)),
            ("digest", Json::String(format!("{:016x}", self.digest))),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_scale_the_pass_count_and_nothing_else() {
        // P = 20 at the sized-for 10 s: 4 passes after each set-up.
        assert_eq!(passes_per_setup(20, RUN_SECONDS), 4);
        assert_eq!(passes_per_setup(20, 2 * RUN_SECONDS), 8);
        // Never fewer than 7 passes in all.
        assert_eq!(passes_per_setup(20, 1), 2);
        assert!(SETUP_REPS * passes_per_setup(1, 0) >= 7);
    }
}
