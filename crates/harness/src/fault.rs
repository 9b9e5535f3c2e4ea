//! The harness's fault-tolerance layer: estimator sandboxing, the typed
//! failure taxonomy, and per-run guard-rail options.
//!
//! Every `CardEst::estimate` call the harness makes goes through
//! [`guarded_estimate`]: the call runs under `std::panic::catch_unwind`
//! (with a quiet panic hook so injected/inherent estimator panics don't
//! spray backtraces over benchmark output) and its wall time is checked
//! against an optional budget. Misbehaviour becomes a typed
//! [`EstimateError`] instead of aborting hours of benchmark work:
//!
//! - **hard** failures ([`EstimateError::Panicked`],
//!   [`EstimateError::TimedOut`]) produce no usable value; the caller
//!   degrades to the PostgreSQL baseline estimate for that sub-plan;
//! - **soft** failures ([`EstimateError::NonFinite`],
//!   [`EstimateError::Degenerate`]) carry the bad value, which the
//!   engine's `clamp_row_est` maps into `[1, cross-product bound]` at the
//!   injection point.
//!
//! Timeout semantics are cooperative: safe Rust cannot kill a running
//! thread, so the estimate runs to completion and is *then* discarded if
//! it overran the budget. A hung estimator therefore still stalls its
//! worker (no worse than before), but a slow one can no longer poison the
//! run with an estimate the paper's setup would have timed out.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Once;
use std::time::{Duration, Instant};

use cardbench_engine::Database;
use cardbench_estimators::CardEst;
use cardbench_query::SubPlanQuery;

/// Why one sub-plan estimate was rejected.
#[derive(Debug, Clone)]
pub enum EstimateError {
    /// `estimate` panicked; the payload message is kept for attribution.
    Panicked {
        /// Panic payload rendered to text.
        message: String,
    },
    /// The call finished but took longer than the per-estimate budget.
    TimedOut {
        /// Observed wall time.
        elapsed: Duration,
        /// The configured budget.
        budget: Duration,
    },
    /// The estimator returned NaN or ±infinity.
    NonFinite {
        /// The offending value.
        value: f64,
    },
    /// The estimator returned a negative or subnormal row count (no
    /// usable magnitude). Zero is *not* degenerate: an empty estimate is
    /// legal and clamps to 1.0 exactly as in PostgreSQL.
    Degenerate {
        /// The offending value.
        value: f64,
    },
    /// The serving layer's circuit breaker was open: the estimator call
    /// was never made and the caller degrades to the baseline
    /// immediately. Distinguished from [`EstimateError::TimedOut`] /
    /// [`EstimateError::Panicked`] ("failed, then degraded") because a
    /// shorted slot never paid the doomed call's latency.
    Shorted,
    /// The request blew its end-to-end deadline before this estimate
    /// started (e.g. while queued behind other sessions); it was failed
    /// fast instead of consuming an estimator slot.
    DeadlineExceeded {
        /// How far past the deadline the request was when rejected.
        late: Duration,
    },
}

impl EstimateError {
    /// Stable kind tag (checkpoint format and report cells).
    pub fn kind(&self) -> &'static str {
        match self {
            EstimateError::Panicked { .. } => "panicked",
            EstimateError::TimedOut { .. } => "timed_out",
            EstimateError::NonFinite { .. } => "non_finite",
            EstimateError::Degenerate { .. } => "degenerate",
            EstimateError::Shorted => "shorted",
            EstimateError::DeadlineExceeded { .. } => "deadline_exceeded",
        }
    }

    /// True when no usable value exists and the caller must fall back to
    /// the baseline estimate (panic/timeout/breaker-short/blown
    /// deadline). Soft failures carry a value the clamp can sanitize.
    pub fn is_hard(&self) -> bool {
        matches!(
            self,
            EstimateError::Panicked { .. }
                | EstimateError::TimedOut { .. }
                | EstimateError::Shorted
                | EstimateError::DeadlineExceeded { .. }
        )
    }
}

impl std::fmt::Display for EstimateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EstimateError::Panicked { message } => write!(f, "panicked: {message}"),
            EstimateError::TimedOut { elapsed, budget } => {
                write!(f, "timed out ({elapsed:?} > {budget:?})")
            }
            EstimateError::NonFinite { value } => write!(f, "non-finite estimate ({value})"),
            EstimateError::Degenerate { value } => write!(f, "degenerate estimate ({value})"),
            EstimateError::Shorted => {
                write!(f, "circuit breaker open: estimator call skipped")
            }
            EstimateError::DeadlineExceeded { late } => {
                write!(f, "deadline exceeded before estimation ({late:?} late)")
            }
        }
    }
}

impl std::error::Error for EstimateError {}

// Manual PartialEq: NaN-valued errors must still compare equal to
// themselves (resume-equality tests diff failure records), so values
// compare by bit pattern.
impl PartialEq for EstimateError {
    fn eq(&self, other: &EstimateError) -> bool {
        match (self, other) {
            (EstimateError::Panicked { message: a }, EstimateError::Panicked { message: b }) => {
                a == b
            }
            (
                EstimateError::TimedOut {
                    elapsed: ea,
                    budget: ba,
                },
                EstimateError::TimedOut {
                    elapsed: eb,
                    budget: bb,
                },
            ) => ea == eb && ba == bb,
            (EstimateError::NonFinite { value: a }, EstimateError::NonFinite { value: b })
            | (EstimateError::Degenerate { value: a }, EstimateError::Degenerate { value: b }) => {
                a.to_bits() == b.to_bits()
            }
            (EstimateError::Shorted, EstimateError::Shorted) => true,
            (
                EstimateError::DeadlineExceeded { late: a },
                EstimateError::DeadlineExceeded { late: b },
            ) => a == b,
            _ => false,
        }
    }
}

/// One recorded estimate failure within a query: which sub-plan (by
/// table mask within the query) and what went wrong.
#[derive(Debug, Clone, PartialEq)]
pub struct EstFailure {
    /// Sub-plan table mask (bits index the query's table list).
    pub mask: u64,
    /// The failure.
    pub error: EstimateError,
}

/// A whole-query failure: the query produced no executed result.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryFailure {
    /// The query did not bind against the catalog.
    Bind {
        /// Binder error text.
        message: String,
    },
    /// The true-cardinality oracle failed on a sub-plan.
    Truth {
        /// Oracle error text.
        message: String,
    },
    /// Execution aborted: intermediate bytes exceeded the memory budget.
    ExecBudget {
        /// Live bytes when the budget tripped.
        peak_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
}

impl QueryFailure {
    /// Stable kind tag (checkpoint format and report cells).
    pub fn kind(&self) -> &'static str {
        match self {
            QueryFailure::Bind { .. } => "bind",
            QueryFailure::Truth { .. } => "truth",
            QueryFailure::ExecBudget { .. } => "exec_budget",
        }
    }
}

impl std::fmt::Display for QueryFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryFailure::Bind { message } => write!(f, "bind failed: {message}"),
            QueryFailure::Truth { message } => write!(f, "true-cardinality failed: {message}"),
            QueryFailure::ExecBudget {
                peak_bytes,
                budget_bytes,
            } => write!(
                f,
                "memory budget exceeded ({peak_bytes}B > {budget_bytes}B)"
            ),
        }
    }
}

/// Guard rails and recovery knobs for one workload run.
#[derive(Debug, Clone, Default)]
pub struct RunOptions {
    /// Planning/estimation threads (`0` = `CARDBENCH_THREADS`, then all
    /// cores).
    pub threads: usize,
    /// Per-sub-plan-estimate wall-clock budget (`None` = unlimited).
    pub timeout: Option<Duration>,
    /// Executor intermediate-bytes budget per query (`None` = unlimited).
    pub mem_budget_bytes: Option<u64>,
    /// JSONL checkpoint path: completed per-query records are streamed
    /// here as they finish.
    pub checkpoint: Option<PathBuf>,
    /// With a checkpoint path set: load existing records and skip their
    /// (method, workload, query) triples instead of recomputing them.
    /// Without this flag an existing checkpoint file is truncated.
    pub resume: bool,
}

thread_local! {
    /// Set while this thread is inside a sandboxed estimate: the process
    /// panic hook stays quiet for expected (caught) estimator panics.
    static SANDBOXED: Cell<bool> = const { Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once per process) a panic hook that suppresses output for
/// panics unwinding out of a sandboxed estimate and defers to the
/// previous hook for everything else.
fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if SANDBOXED.with(|c| c.get()) {
                return;
            }
            prev(info);
        }));
    });
}

/// Renders a panic payload (the `Box<dyn Any>` from `catch_unwind`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one sandboxed, budgeted estimate. Returns the estimator's value
/// or a typed error, plus the observed wall time (always charged to
/// planning time — a panicking or slow estimator still spent it).
pub fn guarded_estimate(
    est: &dyn CardEst,
    db: &Database,
    sub: &SubPlanQuery,
    timeout: Option<Duration>,
) -> (Result<f64, EstimateError>, Duration) {
    install_quiet_panic_hook();
    let sp = cardbench_obs::span_with("estimate", "plan", || est.name().to_string());
    SANDBOXED.with(|c| c.set(true));
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| est.estimate(db, sub)));
    let elapsed = t0.elapsed();
    SANDBOXED.with(|c| c.set(false));
    drop(sp);
    let raw = match outcome {
        Err(payload) => Err(EstimateError::Panicked {
            message: panic_message(payload),
        }),
        Ok(_) if timeout.is_some_and(|budget| elapsed > budget) => Err(EstimateError::TimedOut {
            elapsed,
            budget: timeout.unwrap_or_default(),
        }),
        Ok(v) => Ok(v),
    };
    settle(est.name(), raw, elapsed)
}

/// Settles one sub-plan outcome: sorts a returned value into `Ok`,
/// [`EstimateError::NonFinite`] or [`EstimateError::Degenerate`], and
/// records the latency histogram and the failure counter.
#[inline]
fn settle(
    method: &str,
    raw: Result<f64, EstimateError>,
    elapsed: Duration,
) -> (Result<f64, EstimateError>, Duration) {
    let result = raw.and_then(|v| {
        if !v.is_finite() {
            Err(EstimateError::NonFinite { value: v })
        } else if v < 0.0 || (v > 0.0 && !v.is_normal()) {
            Err(EstimateError::Degenerate { value: v })
        } else {
            Ok(v)
        }
    });
    cardbench_obs::observe_secs(
        "cardbench_estimate_latency_seconds",
        &[("method", method)],
        elapsed.as_secs_f64(),
    );
    if let Err(e) = &result {
        cardbench_obs::counter_add(
            "cardbench_est_failures_total",
            &[("method", method), ("kind", e.kind())],
            1,
        );
    }
    (result, elapsed)
}

/// Runs one sandboxed, budgeted *batched* estimate over a whole sub-plan
/// set ([`CardEst::estimate_batch`]).
///
/// `Some(results)` mirrors per-sub-plan [`guarded_estimate`] outcomes —
/// one `(value-or-soft-error, duration)` per sub-plan, with the batch's
/// wall time split evenly across sub-plans (batch inference has no
/// per-sub-plan attribution) and the same NonFinite/Degenerate value
/// checks applied per value.
///
/// `None` means the batch path is unusable for this query — the
/// estimator panicked mid-batch, returned the wrong number of values, or
/// overran the *aggregate* budget (per-sub-plan budget × batch size) —
/// and the caller must degrade to guarded per-sub-plan calls, which
/// re-establish exact per-sub-plan fault attribution (panic messages,
/// per-call timeouts). No per-sub-plan metrics are emitted in that case;
/// the per-sub-plan path emits its own.
pub fn guarded_estimate_batch(
    est: &dyn CardEst,
    db: &Database,
    subs: &[SubPlanQuery],
    timeout: Option<Duration>,
) -> Option<Vec<(Result<f64, EstimateError>, Duration)>> {
    if subs.is_empty() {
        return Some(Vec::new());
    }
    install_quiet_panic_hook();
    let sp = cardbench_obs::span_with("subplan_batch", "plan", || {
        format!("{} x{}", est.name(), subs.len())
    });
    SANDBOXED.with(|c| c.set(true));
    let t0 = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| est.estimate_batch(db, subs)));
    let elapsed = t0.elapsed();
    SANDBOXED.with(|c| c.set(false));
    drop(sp);
    let values = match outcome {
        Ok(v) if v.len() == subs.len() => v,
        // Panic or wrong arity: no usable per-sub-plan attribution.
        _ => return None,
    };
    // Aggregate budget check (overflow of the multiplied budget means it
    // is effectively unlimited).
    if timeout.is_some_and(|budget| {
        budget
            .checked_mul(subs.len() as u32)
            .is_some_and(|agg| elapsed > agg)
    }) {
        return None;
    }
    let per_sub = elapsed / subs.len() as u32;
    Some(
        values
            .into_iter()
            .map(|v| settle(est.name(), Ok(v), per_sub))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_query::{JoinQuery, TableMask};
    use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

    struct FixedEst(f64);
    impl CardEst for FixedEst {
        fn name(&self) -> &'static str {
            "Fixed"
        }
        fn estimate(&self, _db: &Database, _sub: &SubPlanQuery) -> f64 {
            self.0
        }
    }

    struct PanicEst;
    impl CardEst for PanicEst {
        fn name(&self) -> &'static str {
            "Panic"
        }
        fn estimate(&self, _db: &Database, _sub: &SubPlanQuery) -> f64 {
            panic!("boom")
        }
    }

    struct SlowEst;
    impl CardEst for SlowEst {
        fn name(&self) -> &'static str {
            "Slow"
        }
        fn estimate(&self, _db: &Database, _sub: &SubPlanQuery) -> f64 {
            std::thread::sleep(Duration::from_millis(20));
            7.0
        }
    }

    fn fixture() -> (Database, SubPlanQuery) {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_columns(
                TableSchema::new("t", vec![ColumnDef::new("id", ColumnKind::PrimaryKey)]),
                vec![Column::from_values(vec![1, 2, 3])],
            )
            .unwrap(),
        );
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: JoinQuery::single("t", vec![]),
        };
        (Database::new(cat), sub)
    }

    #[test]
    fn clean_estimates_pass_through() {
        let (db, sub) = fixture();
        let (r, dt) = guarded_estimate(&FixedEst(42.0), &db, &sub, None);
        assert_eq!(r, Ok(42.0));
        assert!(dt < Duration::from_secs(1));
        // Zero is a legal estimate, not a fault.
        let (r, _) = guarded_estimate(&FixedEst(0.0), &db, &sub, None);
        assert_eq!(r, Ok(0.0));
    }

    #[test]
    fn panic_is_caught_and_typed() {
        let (db, sub) = fixture();
        let (r, _) = guarded_estimate(&PanicEst, &db, &sub, None);
        let err = r.expect_err("panic must be captured");
        assert_eq!(err.kind(), "panicked");
        assert!(err.is_hard());
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    fn overrun_is_timed_out() {
        let (db, sub) = fixture();
        let (r, dt) = guarded_estimate(&SlowEst, &db, &sub, Some(Duration::from_millis(1)));
        let err = r.expect_err("overrun must be rejected");
        assert_eq!(err.kind(), "timed_out");
        assert!(err.is_hard());
        assert!(dt >= Duration::from_millis(20));
        // A generous budget accepts the same estimator.
        let (r, _) = guarded_estimate(&SlowEst, &db, &sub, Some(Duration::from_secs(30)));
        assert_eq!(r, Ok(7.0));
    }

    #[test]
    fn bad_values_are_soft_failures() {
        let (db, sub) = fixture();
        for (v, kind) in [
            (f64::NAN, "non_finite"),
            (f64::INFINITY, "non_finite"),
            (f64::NEG_INFINITY, "non_finite"),
            (-3.0, "degenerate"),
            (f64::MIN_POSITIVE / 4.0, "degenerate"),
        ] {
            let (r, _) = guarded_estimate(&FixedEst(v), &db, &sub, None);
            let err = r.expect_err("bad value must be typed");
            assert_eq!(err.kind(), kind, "value {v}");
            assert!(!err.is_hard(), "value faults are soft");
        }
    }

    #[test]
    fn nan_failures_compare_equal() {
        let a = EstimateError::NonFinite { value: f64::NAN };
        let b = EstimateError::NonFinite { value: f64::NAN };
        assert_eq!(a, b);
        assert_ne!(a, EstimateError::NonFinite { value: 1.0 });
        assert_ne!(a, EstimateError::Degenerate { value: f64::NAN });
    }

    #[test]
    fn serving_failures_are_hard_and_typed() {
        let shorted = EstimateError::Shorted;
        assert_eq!(shorted.kind(), "shorted");
        assert!(shorted.is_hard());
        assert_eq!(shorted, EstimateError::Shorted);
        let late = EstimateError::DeadlineExceeded {
            late: Duration::from_millis(3),
        };
        assert_eq!(late.kind(), "deadline_exceeded");
        assert!(late.is_hard());
        assert_ne!(late, shorted);
    }

    /// Returns one value per sub-plan from a fixed list (cycling).
    struct ListEst(Vec<f64>);
    impl CardEst for ListEst {
        fn name(&self) -> &'static str {
            "List"
        }
        fn estimate(&self, _db: &Database, _sub: &SubPlanQuery) -> f64 {
            self.0[0]
        }
        fn estimate_batch(&self, _db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
            (0..subs.len()).map(|i| self.0[i % self.0.len()]).collect()
        }
    }

    /// Misbehaving batch: returns the wrong number of values.
    struct ShortBatchEst;
    impl CardEst for ShortBatchEst {
        fn name(&self) -> &'static str {
            "ShortBatch"
        }
        fn estimate(&self, _db: &Database, _sub: &SubPlanQuery) -> f64 {
            1.0
        }
        fn estimate_batch(&self, _db: &Database, _subs: &[SubPlanQuery]) -> Vec<f64> {
            vec![1.0]
        }
    }

    #[test]
    fn batch_mirrors_per_sub_outcomes() {
        let (db, sub) = fixture();
        let subs = vec![sub.clone(), sub.clone(), sub.clone(), sub.clone()];
        let est = ListEst(vec![42.0, f64::NAN, -3.0, 0.0]);
        let results = guarded_estimate_batch(&est, &db, &subs, None).expect("clean batch");
        assert_eq!(results.len(), 4);
        assert_eq!(results[0].0, Ok(42.0));
        assert_eq!(results[1].0.as_ref().unwrap_err().kind(), "non_finite");
        assert_eq!(results[2].0.as_ref().unwrap_err().kind(), "degenerate");
        assert_eq!(results[3].0, Ok(0.0), "zero is legal");
    }

    #[test]
    fn batch_panic_degrades_to_none() {
        let (db, sub) = fixture();
        let subs = vec![sub.clone(), sub.clone()];
        assert!(guarded_estimate_batch(&PanicEst, &db, &subs, None).is_none());
        // The sandbox flag is clear again afterwards.
        let r = guarded_estimate_batch(&ListEst(vec![1.0]), &db, &subs, None);
        assert!(r.is_some());
    }

    #[test]
    fn batch_wrong_arity_degrades_to_none() {
        let (db, sub) = fixture();
        let subs = vec![sub.clone(), sub.clone()];
        assert!(guarded_estimate_batch(&ShortBatchEst, &db, &subs, None).is_none());
    }

    #[test]
    fn batch_aggregate_overrun_degrades_to_none() {
        let (db, sub) = fixture();
        let subs = vec![sub.clone()];
        // SlowEst's default batch takes ≥20ms for one sub: over a 1ms
        // aggregate budget, under a generous one.
        assert!(
            guarded_estimate_batch(&SlowEst, &db, &subs, Some(Duration::from_millis(1))).is_none()
        );
        let r = guarded_estimate_batch(&SlowEst, &db, &subs, Some(Duration::from_secs(30)));
        assert_eq!(r.expect("fits budget")[0].0, Ok(7.0));
    }

    #[test]
    fn empty_batch_is_trivially_ok() {
        let (db, _) = fixture();
        let r = guarded_estimate_batch(&PanicEst, &db, &[], None);
        assert_eq!(r, Some(Vec::new()));
    }

    #[test]
    fn sandbox_survives_repeated_panics() {
        let (db, sub) = fixture();
        for _ in 0..50 {
            let (r, _) = guarded_estimate(&PanicEst, &db, &sub, None);
            assert!(r.is_err());
        }
        // The sandbox flag is clear again: a clean call still works.
        let (r, _) = guarded_estimate(&FixedEst(1.0), &db, &sub, None);
        assert_eq!(r, Ok(1.0));
    }
}
