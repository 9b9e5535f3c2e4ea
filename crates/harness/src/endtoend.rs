//! Per-query end-to-end runs: inject estimates for the sub-plan space,
//! optimize, execute for real, and record times and metrics.
//!
//! The run is two-phased. Phase 1 — sub-plan enumeration, estimator
//! inference, true-cardinality lookups, plan choice, and metric
//! computation — is embarrassingly parallel across queries and fans out
//! over a scoped thread pool ([`cardbench_support::par`]). Phase 2 — the
//! timed plan executions — stays strictly sequential so wall-clock
//! numbers are never polluted by sibling queries competing for cores.
//! Estimation latency is still timed per call inside phase 1: each
//! `estimate` is timed around its own call, which parallelism does not
//! reorder or interleave (one sub-plan's inference runs start-to-finish
//! on one thread).
//!
//! Every estimate is sandboxed ([`crate::fault::guarded_estimate`]):
//! panics and budget overruns become typed [`EstFailure`] records, the
//! affected sub-plan degrades to the PostgreSQL baseline estimate, and
//! the run continues. Estimates are injected through the engine's
//! `clamp_row_est` with the sub-plan's cross-product bound, execution can
//! run under a memory budget, and per-query records stream to an
//! append-only JSONL checkpoint for kill/resume recovery (see
//! [`crate::checkpoint`]).

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use cardbench_engine::{
    optimize_topo, try_execute_with, CardMap, CostModel, Database, ExecError, ExecScratch,
    ExecStats, PhysicalPlan, TrueCardService,
};
use cardbench_estimators::postgres::PostgresEst;
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_metrics::{q_error_checked, MetricInput, TruthCost};
use cardbench_query::{BoundQuery, SubPlanQuery};
use cardbench_support::par;
use cardbench_workload::{Workload, WorkloadQuery};

use crate::checkpoint::{load_checkpoint, CheckpointWriter};
use crate::fault::{EstFailure, EstimateError, QueryFailure, RunOptions};
use crate::pass;

/// Result of one query under one estimator.
#[derive(Debug, Clone)]
pub struct QueryRun {
    /// Workload query id.
    pub id: usize,
    /// Number of joined tables.
    pub n_tables: usize,
    /// True result cardinality.
    pub true_card: f64,
    /// Wall-clock execution time of the chosen plan.
    pub exec: Duration,
    /// Planning time: the summed inference latency over the sub-plan
    /// space (the component the estimator controls).
    pub plan: Duration,
    /// Number of sub-plan queries estimated.
    pub subplans: usize,
    /// P-Error of the chosen plan.
    pub p_error: f64,
    /// Q-Errors over all sub-plan queries. Sub-plans whose estimate was
    /// non-finite are *excluded* (counted in `excluded_qerrors`), not
    /// scored as if the estimator had answered 1 row.
    pub q_errors: Vec<f64>,
    /// Sub-plans excluded from `q_errors` because the estimate was
    /// invalid (NaN/±inf/degenerate) — a typed rejection, not a score.
    pub excluded_qerrors: u64,
    /// Estimated cardinality per sub-plan, in `connected_subsets` order
    /// (exposed so determinism across thread counts is checkable). For
    /// faulted sub-plans this is the value the optimizer actually saw
    /// (clamped or baseline-substituted).
    pub sub_est_cards: Vec<f64>,
    /// True cardinality per sub-plan, in the same order.
    pub sub_true_cards: Vec<f64>,
    /// COUNT(*) result of the executed plan.
    pub result_rows: u64,
    /// Operator-level execution counters of the chosen plan (identical
    /// across the warm-up and every timed repeat).
    pub exec_stats: ExecStats,
    /// Typed per-sub-plan estimate failures (panic, timeout, NaN, …).
    pub est_failures: Vec<EstFailure>,
    /// Sub-plan estimates the engine's clamp had to intervene on.
    pub clamped_subplans: u64,
    /// Sub-plans degraded to the PostgreSQL baseline estimate after a
    /// hard estimator failure.
    pub fallback_subplans: u64,
    /// Whole-query failure: set when the query produced no executed
    /// result (bind/truth error or memory-budget abort).
    pub failure: Option<QueryFailure>,
}

impl QueryRun {
    /// True when the query executed to completion.
    pub fn completed(&self) -> bool {
        self.failure.is_none()
    }
}

/// All queries of one workload under one estimator.
#[derive(Debug, Clone)]
pub struct MethodRun {
    /// Which estimator.
    pub kind: EstimatorKind,
    /// Training wall time.
    pub train_time: Duration,
    /// Model size in bytes.
    pub model_size: usize,
    /// Per-query results in workload order.
    pub queries: Vec<QueryRun>,
}

impl MethodRun {
    /// Total execution time.
    pub fn exec_total(&self) -> Duration {
        pass::exec(&self.queries)
    }

    /// Total planning (inference) time.
    pub fn plan_total(&self) -> Duration {
        pass::plan(&self.queries)
    }

    /// End-to-end time (execution + planning).
    pub fn e2e_total(&self) -> Duration {
        pass::e2e(&self.queries)
    }

    /// Mean inference latency per sub-plan estimate.
    pub fn avg_inference(&self) -> Duration {
        let n: usize = self.queries.iter().map(|q| q.subplans).sum();
        if n == 0 {
            Duration::ZERO
        } else {
            self.plan_total() / n as u32
        }
    }

    /// All sub-plan Q-Errors.
    pub fn all_q_errors(&self) -> Vec<f64> {
        pass::q_errors(&self.queries)
    }

    /// All per-query P-Errors (completed queries only).
    pub fn all_p_errors(&self) -> Vec<f64> {
        pass::p_errors(&self.queries)
    }

    /// Operator counters aggregated over all queries: additive counters
    /// sum; `peak_intermediate_bytes` is the max over queries.
    pub fn exec_stats_total(&self) -> ExecStats {
        exec_stats_total(&self.queries)
    }

    /// Improvement over a baseline end-to-end time, in percent
    /// (positive = faster than baseline).
    pub fn improvement_over(&self, baseline: Duration) -> f64 {
        pass::improvement(self.e2e_total(), baseline)
    }

    /// Queries that produced no executed result.
    pub fn failed_queries(&self) -> usize {
        self.queries.iter().filter(|q| !q.completed()).count()
    }

    /// Total typed sub-plan estimate failures across all queries.
    pub fn est_failure_total(&self) -> usize {
        self.queries.iter().map(|q| q.est_failures.len()).sum()
    }

    /// Total sub-plans degraded to the PostgreSQL baseline.
    pub fn fallback_total(&self) -> u64 {
        self.queries.iter().map(|q| q.fallback_subplans).sum()
    }

    /// Total sub-plans excluded from Q-Error aggregation because their
    /// estimate was invalid.
    pub fn excluded_qerror_total(&self) -> u64 {
        self.queries.iter().map(|q| q.excluded_qerrors).sum()
    }
}

/// [`MethodRun::exec_stats_total`] over any slice of queries.
fn exec_stats_total(queries: &[QueryRun]) -> ExecStats {
    let mut total = ExecStats::default();
    for q in queries {
        let s = &q.exec_stats;
        total.output_rows += s.output_rows;
        total.intermediate_rows += s.intermediate_rows;
        total.build_rows += s.build_rows;
        total.probe_rows += s.probe_rows;
        total.rows_gathered += s.rows_gathered;
        total.partitions_spilled += s.partitions_spilled;
        total.peak_intermediate_bytes =
            total.peak_intermediate_bytes.max(s.peak_intermediate_bytes);
    }
    total
}

/// One query after phase 1: everything except timed execution. The one
/// planning record: P-Error, feedback, the Figure 2 case study and
/// serving all read it instead of planning again.
///
/// Public so serving layers ([`plan_query_via`]) can run the planning
/// pipeline without the harness's sequential execution phase; the fields
/// mirror [`QueryRun`]'s planning-side subset, plus the sub-plans.
#[derive(Debug)]
pub struct PlannedQuery {
    /// Workload query id.
    pub id: usize,
    /// Number of joined tables.
    pub n_tables: usize,
    /// True result cardinality.
    pub true_card: f64,
    /// Summed inference latency over the sub-plan space.
    pub plan_time: Duration,
    /// Number of sub-plan queries estimated.
    pub subplans: usize,
    /// P-Error of the chosen plan.
    pub p_error: f64,
    /// Valid sub-plan Q-Errors (see [`QueryRun::q_errors`]).
    pub q_errors: Vec<f64>,
    /// Sub-plans excluded from `q_errors` (invalid estimates).
    pub excluded_qerrors: u64,
    /// Estimated cardinality per sub-plan, `connected_subsets` order.
    pub sub_est_cards: Vec<f64>,
    /// True cardinality per sub-plan, in the same order.
    pub sub_true_cards: Vec<f64>,
    /// Typed per-sub-plan estimate failures.
    pub est_failures: Vec<EstFailure>,
    /// Sub-plan estimates the engine's clamp intervened on.
    pub clamped_subplans: u64,
    /// Sub-plans degraded to the PostgreSQL baseline estimate.
    pub fallback_subplans: u64,
    /// The projected sub-plans, `connected_subsets` order (slot `i` of
    /// `sub_est_cards` and `sub_true_cards` is `subs[i]`; its `mask`
    /// keys the plan's nodes). Empty when planning failed; execution
    /// drops them.
    pub subs: Vec<SubPlanQuery>,
    /// `Ok`: ready to execute. `Err`: the query failed before planning
    /// completed (bind or truth error) and must not execute.
    pub plan: Result<(BoundQuery, PhysicalPlan), QueryFailure>,
}

/// Runs every workload query through the optimizer with the estimator's
/// injected cardinalities and executes the chosen plans, under the guard
/// rails of `opts` ([`RunOptions`]): planning threads (`0` =
/// `CARDBENCH_THREADS`, then all cores; results are identical for every
/// count), a per-estimate wall-clock budget, a per-query executor memory
/// budget, and JSONL checkpoint/resume. `&RunOptions::default()` is the
/// plain run.
///
/// Phase 1 fans queries out over the configured workers: each worker owns
/// a query end-to-end through sub-plan enumeration, inference (timed per
/// call), true-cardinality lookups, plan choice, and Q-/P-Error. Phase 2
/// then executes the chosen plans one at a time — warm-up plus median of
/// three timed runs — so execution wall-clock is measured on an otherwise
/// idle process, exactly as in the sequential harness.
///
/// With `opts.checkpoint` set, each completed [`QueryRun`] is appended to
/// the checkpoint as it finishes; with `opts.resume` additionally set,
/// records already present for this (estimator, workload) are reused
/// verbatim and their queries skipped. Fault decisions, estimates, and
/// executed results are deterministic, so a killed-and-resumed run equals
/// an uninterrupted one on every non-timing field.
pub fn run_workload(
    db: &Database,
    wl: &Workload,
    est: &dyn CardEst,
    truth: &TrueCardService,
    cost: &CostModel,
    opts: &RunOptions,
) -> Vec<QueryRun> {
    let _sp = cardbench_obs::span_with("workload", "run", || {
        format!("{} / {}", wl.name, est.name())
    });
    let threads = par::resolve_threads(opts.threads);
    let caches_before = CacheCounters::snapshot(db, truth);

    // Resume: load completed (estimator, workload, query) records.
    let mut resumed: HashMap<usize, QueryRun> = HashMap::new();
    if opts.resume {
        if let Some(path) = &opts.checkpoint {
            for rec in load_checkpoint(path).unwrap_or_default() {
                if rec.method == est.name() && rec.workload == wl.name {
                    resumed.insert(rec.run.id, rec.run);
                }
            }
        }
    }
    let mut writer = opts.checkpoint.as_ref().and_then(|path| {
        let w = if opts.resume {
            CheckpointWriter::append(path)
        } else {
            CheckpointWriter::create(path)
        };
        match w {
            Ok(w) => Some(w),
            Err(e) => {
                eprintln!("[cardbench] checkpoint {} unavailable: {e}", path.display());
                None
            }
        }
    });

    let todo: Vec<&WorkloadQuery> = wl
        .queries
        .iter()
        .filter(|wq| !resumed.contains_key(&wq.id))
        .collect();

    // The graceful-degradation estimator for hard failures, built at most
    // once per run (lazily, shared across planning threads): when an
    // estimate panics or overruns its budget, its sub-plan falls back to
    // the PostgreSQL baseline — the same behaviour as the paper's setup,
    // where the plan still has *some* row count for every sub-plan.
    let fallback: OnceLock<PostgresEst> = OnceLock::new();

    // Phase 1: plan every query (parallel, order-preserving).
    let estimate = |subs: &[SubPlanQuery]| estimate_all(est, db, subs, opts.timeout);
    let planned: Vec<PlannedQuery> = par::map(&todo, threads, |_, wq| {
        plan_query_via(db, wq, &estimate, truth, cost, &fallback)
    });

    // Phase 2: execute the chosen plans (sequential, timed). One scratch
    // arena serves every execution, so only the very first run of the
    // phase pays buffer allocations; results are bit-identical to fresh
    // buffers (asserted by the executor differential property test).
    let mut scratch = ExecScratch::new();
    let mut computed: HashMap<usize, QueryRun> = HashMap::with_capacity(planned.len());
    for p in planned {
        let run = execute_one(db, p, opts, &mut scratch);
        if let Some(mut w) = writer.take() {
            match w.write(est.name(), &wl.name, &run) {
                Ok(()) => writer = Some(w),
                Err(e) => eprintln!("[cardbench] checkpoint write failed: {e}"),
            }
        }
        computed.insert(run.id, run);
    }

    // Stitch resumed and fresh records back into workload order.
    let runs: Vec<QueryRun> = wl
        .queries
        .iter()
        .filter_map(|wq| resumed.remove(&wq.id).or_else(|| computed.remove(&wq.id)))
        .collect();
    record_run_metrics(est.name(), &runs, scratch.retained_bytes());
    record_cache_metrics(
        est.name(),
        &caches_before,
        &CacheCounters::snapshot(db, truth),
    );
    runs
}

/// Point-in-time (hits, misses) of the four engine-side caches: the
/// predicate filter cache, the one-pass enumerator's per-(table,
/// predicate-set, join-column) aggregate memo, the true-cardinality
/// cache, and the plan-search topology cache.
struct CacheCounters {
    filter: (u64, u64),
    agg: (u64, u64),
    truecard: (u64, u64),
    topology: (u64, u64),
}

impl CacheCounters {
    fn snapshot(db: &Database, truth: &TrueCardService) -> CacheCounters {
        CacheCounters {
            filter: db.filter_cache_stats(),
            agg: db.agg_cache_stats(),
            truecard: truth.cache_stats(),
            topology: db.topology_cache_stats(),
        }
    }
}

/// Folds this run's engine-cache traffic into the observability registry.
/// The underlying counters are cumulative across runs sharing a
/// `Database`/`TrueCardService`, so only the before/after delta is
/// attributed to this method.
fn record_cache_metrics(method: &str, before: &CacheCounters, after: &CacheCounters) {
    use cardbench_obs::counter_add;
    if !cardbench_obs::enabled() {
        return;
    }
    let m = [("method", method)];
    for (hits_family, misses_family, b, a) in [
        (
            "cardbench_filter_cache_hits_total",
            "cardbench_filter_cache_misses_total",
            before.filter,
            after.filter,
        ),
        (
            "cardbench_agg_memo_hits_total",
            "cardbench_agg_memo_misses_total",
            before.agg,
            after.agg,
        ),
        (
            "cardbench_truecard_cache_hits_total",
            "cardbench_truecard_cache_misses_total",
            before.truecard,
            after.truecard,
        ),
        (
            "cardbench_topology_cache_hits_total",
            "cardbench_topology_cache_misses_total",
            before.topology,
            after.topology,
        ),
    ] {
        counter_add(hits_family, &m, a.0.saturating_sub(b.0));
        counter_add(misses_family, &m, a.1.saturating_sub(b.1));
    }
}

/// Folds one workload run's counters into the observability registry in
/// bulk — the hot paths keep their plain struct counters, and the mutex
/// behind the registry is taken once per run, not per row — together
/// with the bytes the run's execution arena ended up retaining. No-op
/// while recording is disabled.
fn record_run_metrics(method: &str, runs: &[QueryRun], scratch_bytes: u64) {
    use cardbench_obs::{counter_add, gauge_max};
    if !cardbench_obs::enabled() {
        return;
    }
    let m = [("method", method)];
    let total = |count: fn(&QueryRun) -> u64| -> u64 { runs.iter().map(count).sum() };
    let stats = exec_stats_total(runs);
    for (family, n) in [
        (
            "cardbench_clamped_subplans_total",
            total(|q| q.clamped_subplans),
        ),
        (
            "cardbench_fallback_subplans_total",
            total(|q| q.fallback_subplans),
        ),
        (
            "cardbench_excluded_qerrors_total",
            total(|q| q.excluded_qerrors),
        ),
        (
            "cardbench_failed_queries_total",
            total(|q| u64::from(!q.completed())),
        ),
        ("cardbench_join_build_rows_total", stats.build_rows),
        ("cardbench_join_probe_rows_total", stats.probe_rows),
        ("cardbench_intermediate_rows_total", stats.intermediate_rows),
        ("cardbench_rows_gathered_total", stats.rows_gathered),
        (
            "cardbench_partitions_spilled_total",
            stats.partitions_spilled,
        ),
    ] {
        counter_add(family, &m, n);
    }
    gauge_max(
        "cardbench_peak_intermediate_bytes",
        &m,
        stats.peak_intermediate_bytes as f64,
    );
    gauge_max("cardbench_exec_scratch_bytes", &m, scratch_bytes as f64);
}

/// Estimation outcomes for one query's whole sub-plan space, batch-first.
///
/// The sandboxed batch path ([`crate::fault::guarded_estimate_batch`])
/// runs the estimator's `estimate_batch` once over every sub-plan;
/// estimators with real batching (one forward pass, shared SPN walks,
/// the one-pass true-card enumerator) amortize their per-call overhead
/// there, and batched values are bit-identical to sequential ones by the
/// trait's contract. When the batch is unusable — a panic mid-batch, a
/// wrong-arity result, or an aggregate budget overrun — the query
/// degrades to the guarded per-sub-plan path, which restores exact
/// per-sub-plan fault attribution (per-call timeouts, panic messages),
/// so `EstFailure` accounting, clamping, and the PostgreSQL fallback
/// behave exactly as in the sequential harness.
pub fn estimate_all(
    est: &dyn CardEst,
    db: &Database,
    subs: &[SubPlanQuery],
    timeout: Option<Duration>,
) -> Vec<(Result<f64, EstimateError>, Duration)> {
    use crate::fault::{guarded_estimate, guarded_estimate_batch};

    if let Some(mut results) = guarded_estimate_batch(est, db, subs, timeout) {
        if est.is_oracle() {
            // The paper injects precomputed true cardinalities; time a
            // warm (cached) batch instead of the first computation.
            if let Some(warm) = guarded_estimate_batch(est, db, subs, timeout) {
                for (r, w) in results.iter_mut().zip(warm) {
                    if r.0.is_ok() {
                        r.1 = w.1;
                    }
                }
            }
        }
        return results;
    }
    subs.iter()
        .map(|sub| {
            let (outcome, mut dt) = guarded_estimate(est, db, sub, timeout);
            if est.is_oracle() && outcome.is_ok() {
                // Warm (cached) call, as above.
                let (_, warm) = guarded_estimate(est, db, sub, timeout);
                dt = warm;
            }
            (outcome, dt)
        })
        .collect()
}

/// Per-sub-plan `(outcome, latency)` results, in the same order as the
/// sub-plan slice they were computed from.
pub type SubPlanOutcomes = Vec<(Result<f64, EstimateError>, Duration)>;

/// The planning pipeline with the estimation step abstracted out: bind,
/// enumerate the connected sub-plan space, bulk true cardinalities, call
/// `estimate` for the per-sub-plan outcomes, then sanitized injection,
/// plan choice, and Q-/P-Error — exactly [`run_workload`]'s phase 1.
///
/// `estimate` receives the query's sub-plans in `connected_subsets`
/// order and must return one `(outcome, latency)` per sub-plan in the
/// same order. The harness passes [`estimate_all`] (batch-first guarded
/// estimation); a serving layer passes a closure that routes the slice
/// through a shared cross-session batch coalescer. Hard failures in the
/// returned outcomes still degrade to the shared PostgreSQL `fallback`
/// here, so fault semantics do not depend on who estimated.
pub fn plan_query_via(
    db: &Database,
    wq: &WorkloadQuery,
    estimate: &(dyn Fn(&[SubPlanQuery]) -> SubPlanOutcomes + Sync),
    truth: &TrueCardService,
    cost: &CostModel,
    fallback: &OnceLock<PostgresEst>,
) -> PlannedQuery {
    let _sp = cardbench_obs::span_with("plan", "plan", || format!("Q{}", wq.id));
    let query = &wq.query;
    let failed = |plan_time, failure| PlannedQuery {
        id: wq.id,
        n_tables: query.table_count(),
        true_card: wq.true_card,
        plan_time,
        subplans: 0,
        p_error: f64::NAN,
        q_errors: Vec::new(),
        excluded_qerrors: 0,
        sub_est_cards: Vec::new(),
        sub_true_cards: Vec::new(),
        est_failures: Vec::new(),
        clamped_subplans: 0,
        fallback_subplans: 0,
        subs: Vec::new(),
        plan: Err(failure),
    };

    let bound = match BoundQuery::bind(query, db.catalog()) {
        Ok(b) => b,
        Err(e) => {
            return failed(
                Duration::ZERO,
                QueryFailure::Bind {
                    message: e.to_string(),
                },
            )
        }
    };
    // The cached plan-search shape: its mask list is `connected_subsets`
    // order, so dense index i ↔ subs[i] ↔ truths[i] throughout.
    let topo = db.topology(query, &bound);
    let masks = topo.masks();
    let subs: Vec<SubPlanQuery> = masks
        .iter()
        .map(|&mask| SubPlanQuery::project(query, mask))
        .collect();
    // Bulk truth first: the one-pass enumerator fills every connected
    // subset's exact count in a single bottom-up traversal instead of one
    // join execution per mask. The pre-projected sub-plans above feed the
    // cache-key pass, so projection happens once per query, not twice.
    let truths = match truth.cardinalities_for_subplans(db, query, &subs) {
        Ok(t) => t,
        Err(e) => {
            return failed(
                Duration::ZERO,
                QueryFailure::Truth {
                    message: e.to_string(),
                },
            )
        }
    };
    debug_assert_eq!(truths.len(), masks.len());
    let outcomes = estimate(&subs);
    debug_assert_eq!(outcomes.len(), subs.len());
    let mut est_cards = CardMap::new();
    let mut true_cards = CardMap::new();
    let mut plan_time = Duration::ZERO;
    let mut q_errors = Vec::with_capacity(masks.len());
    let mut excluded_qerrors = 0u64;
    let mut sub_est_cards = Vec::with_capacity(masks.len());
    let mut sub_true_cards = Vec::with_capacity(masks.len());
    let mut est_failures = Vec::new();
    let mut fallback_subplans = 0u64;
    for (i, ((&mask, sp), (&(_, t), (outcome, dt)))) in masks
        .iter()
        .zip(&subs)
        .zip(truths.iter().zip(outcomes))
        .enumerate()
    {
        plan_time += dt;
        // Dense index i aligns with `masks` by construction: the
        // cross-product upper bound no sub-plan estimate may exceed.
        let upper = topo.cross_bound(i);
        // Decide what the optimizer sees and what the metrics score.
        // Clean estimates keep their raw value for Q-Error; hard failures
        // score the baseline actually substituted (the plan ran on it);
        // soft failures (NaN/±inf/degenerate) have no meaningful Q-Error
        // — scoring the clamp's 1.0 stand-in would charge the estimator
        // for the *sanitizer's* answer — so they are excluded and counted.
        let (seen, scored) = match outcome {
            Ok(v) => {
                est_cards.insert_bounded(mask, v, upper);
                (v, q_error_checked(v, t))
            }
            Err(err) => {
                let soft = !err.is_hard();
                let injected = if err.is_hard() {
                    fallback_subplans += 1;
                    fallback
                        .get_or_init(|| PostgresEst::fit(db))
                        .estimate(db, sp)
                } else {
                    // Soft failure: the raw value survives to the clamp.
                    match err {
                        EstimateError::NonFinite { value }
                        | EstimateError::Degenerate { value } => value,
                        _ => f64::NAN,
                    }
                };
                est_cards.insert_bounded(mask, injected, upper);
                est_failures.push(EstFailure {
                    mask: mask.0,
                    error: err,
                });
                // The optimizer saw the clamped/substituted value; score
                // hard-failure fallbacks (the plan ran on them), exclude
                // soft ones.
                let seen = est_cards.rows(mask);
                let scored = if soft {
                    MetricInput::Invalid
                } else {
                    q_error_checked(seen, t)
                };
                (seen, scored)
            }
        };
        true_cards.insert(mask, t);
        match scored {
            MetricInput::Valid(qe) => q_errors.push(qe),
            MetricInput::Invalid => excluded_qerrors += 1,
        }
        sub_est_cards.push(seen);
        sub_true_cards.push(t);
    }
    // One DP over the estimates chooses the plan, and P-Error scores that
    // plan against the truth half: the estimate DP runs once per query.
    let dense_est = est_cards.dense_view(&topo);
    let (_, plan) = optimize_topo(&topo, &bound, db, &dense_est, cost, false);
    let dense_true = true_cards.dense_view(&topo);
    let pe = TruthCost::new(db, cost, topo, &bound, dense_true).p_error(db, cost, &bound, &plan);
    PlannedQuery {
        id: wq.id,
        n_tables: query.table_count(),
        true_card: wq.true_card,
        plan_time,
        subplans: subs.len(),
        p_error: pe,
        q_errors,
        excluded_qerrors,
        sub_est_cards,
        sub_true_cards,
        est_failures,
        clamped_subplans: est_cards.clamped(),
        fallback_subplans,
        subs,
        plan: Ok((bound, plan)),
    }
}

/// Phase-2 work for one planned query: warm-up plus median-of-three
/// timed executions, under the optional memory budget. The sub-plans are
/// dropped: a [`QueryRun`] does not keep them.
pub(crate) fn execute_one(
    db: &Database,
    p: PlannedQuery,
    opts: &RunOptions,
    scratch: &mut ExecScratch,
) -> QueryRun {
    let _sp = cardbench_obs::span_with("execute", "exec", || format!("Q{}", p.id));
    let mut run = QueryRun {
        id: p.id,
        n_tables: p.n_tables,
        true_card: p.true_card,
        exec: Duration::ZERO,
        plan: p.plan_time,
        subplans: p.subplans,
        p_error: p.p_error,
        q_errors: p.q_errors,
        excluded_qerrors: p.excluded_qerrors,
        sub_est_cards: p.sub_est_cards,
        sub_true_cards: p.sub_true_cards,
        result_rows: 0,
        exec_stats: ExecStats::default(),
        est_failures: p.est_failures,
        clamped_subplans: p.clamped_subplans,
        fallback_subplans: p.fallback_subplans,
        failure: None,
    };
    let (bound, plan) = match p.plan {
        Ok(bp) => bp,
        Err(failure) => {
            run.failure = Some(failure);
            run.p_error = f64::NAN;
            return run;
        }
    };
    let budget = opts.mem_budget_bytes;
    // Warm run first, then median of three timed runs: wall-clock at
    // millisecond scale is dominated by allocator/cache state and
    // scheduling noise, which would otherwise punish whichever method
    // happens to hit a cold or contended moment.
    let (rows, stats) = match try_execute_with(&plan, &bound, db, scratch, budget) {
        Ok(out) => out,
        Err(ExecError::BudgetExceeded {
            peak_bytes,
            budget_bytes,
        }) => {
            run.failure = Some(QueryFailure::ExecBudget {
                peak_bytes,
                budget_bytes,
            });
            return run;
        }
    };
    let mut times = [Duration::ZERO; 3];
    for t in &mut times {
        let t0 = Instant::now();
        // Execution is deterministic: a repeat of a run that fit the
        // budget fits it again.
        let (rows2, stats2) = try_execute_with(&plan, &bound, db, scratch, budget)
            .expect("deterministic re-execution stays within budget");
        *t = t0.elapsed();
        debug_assert_eq!(rows, rows2);
        debug_assert_eq!(stats, stats2);
    }
    times.sort();
    run.exec = times[1];
    run.result_rows = rows;
    run.exec_stats = stats;
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bench, BenchConfig};
    use crate::factory::build_estimator;

    #[test]
    fn truecard_runs_and_counts_match() {
        let b = Bench::build(BenchConfig::fast(2));
        let built = build_estimator(
            EstimatorKind::TrueCard,
            &b.stats_db,
            &b.stats_train,
            &b.config.settings,
        );
        let truth = TrueCardService::new();
        let runs = run_workload(
            &b.stats_db,
            &b.stats_wl,
            built.est.as_ref(),
            &truth,
            &CostModel::default(),
            &RunOptions::default(),
        );
        assert_eq!(runs.len(), b.stats_wl.queries.len());
        for (run, wq) in runs.iter().zip(&b.stats_wl.queries) {
            // Executed COUNT(*) must equal the generator's truth.
            assert_eq!(run.result_rows as f64, wq.true_card, "Q{}", run.id);
            // Oracle Q-Errors are exactly 1.
            for &qe in &run.q_errors {
                assert!((qe - 1.0).abs() < 1e-9);
            }
            // Oracle P-Error is exactly 1.
            assert!((run.p_error - 1.0).abs() < 1e-9);
            assert!(run.completed());
            assert!(run.est_failures.is_empty());
            assert_eq!(run.fallback_subplans, 0);
        }
    }

    /// Truth is estimator-free, so one service shared by every estimator
    /// (as `report all` shares one per dataset) answers bit for bit what
    /// a fresh service per estimator answers.
    #[test]
    fn a_shared_truth_service_changes_no_run() {
        let b = Bench::build(BenchConfig::fast(9));
        let shared = TrueCardService::new();
        for kind in [EstimatorKind::TrueCard, EstimatorKind::Postgres] {
            let built = build_estimator(kind, &b.stats_db, &b.stats_train, &b.config.settings);
            let run = |truth: &TrueCardService| {
                run_workload(
                    &b.stats_db,
                    &b.stats_wl,
                    built.est.as_ref(),
                    truth,
                    &CostModel::default(),
                    &RunOptions::default(),
                )
            };
            let (fresh, reused) = (run(&TrueCardService::new()), run(&shared));
            assert_eq!(fresh.len(), reused.len());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (f, r) in fresh.iter().zip(&reused) {
                let q = (kind.name(), f.id);
                assert_eq!(bits(&f.sub_true_cards), bits(&r.sub_true_cards), "{q:?}");
                assert_eq!(bits(&f.sub_est_cards), bits(&r.sub_est_cards), "{q:?}");
                assert_eq!(f.p_error.to_bits(), r.p_error.to_bits(), "{q:?}");
                assert_eq!(f.result_rows, r.result_rows, "{q:?}");
            }
        }
    }

    #[test]
    fn postgres_baseline_q_errors_ge_one() {
        let b = Bench::build(BenchConfig::fast(2));
        let built = build_estimator(
            EstimatorKind::Postgres,
            &b.stats_db,
            &b.stats_train,
            &b.config.settings,
        );
        let truth = TrueCardService::new();
        let runs = run_workload(
            &b.stats_db,
            &b.stats_wl,
            built.est.as_ref(),
            &truth,
            &CostModel::default(),
            &RunOptions::default(),
        );
        for run in &runs {
            for &qe in &run.q_errors {
                assert!(qe >= 1.0);
            }
            assert!(run.p_error >= 1.0 - 1e-9);
            // Plans always produce the true count, regardless of
            // estimation quality — only speed differs.
            assert_eq!(run.result_rows as f64, run.true_card);
        }
    }
}
