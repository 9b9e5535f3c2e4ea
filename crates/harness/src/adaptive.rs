//! Adaptive estimation runs: plan → execute → **observe** per query, so
//! the feedback store accumulates executed true cardinalities while the
//! workload streams, and accuracy can be reported *as a function of
//! queries seen*. Includes the drift experiment: a `temporal_split` data
//! shift invalidates the accumulated feedback, and a further replay
//! shows the store re-converging (paper ROADMAP open item 2; the
//! adaptive loop of arXiv:1711.08330).

use std::sync::{Arc, OnceLock};

use cardbench_datagen::stats::{temporal_split, SPLIT_DAY};
use cardbench_datagen::{stats_catalog, StatsConfig};
use cardbench_engine::{CostModel, Database, ExecScratch, TrueCardService};
use cardbench_estimators::lw::TrainingSet;
use cardbench_estimators::postgres::PostgresEst;
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_feedback::{FeedbackConfig, FeedbackEst, FeedbackStats, FeedbackStore};
use cardbench_query::{BoundQuery, JoinQuery, SubPlanQuery};
use cardbench_storage::TableId;
use cardbench_workload::Workload;

use crate::config::EstimatorSettings;
use crate::endtoend::{estimate_all, execute_one, plan_query_via, QueryRun};
use crate::factory::{build_estimator, BuiltEstimator};
use crate::fault::RunOptions;

/// Runs one workload strictly sequentially — plan, execute, then feed
/// the executed sub-plan truths back into `store` — so query `i+1` is
/// planned with everything learned from queries `0..=i`. The returned
/// runs are in workload order: their Q-Errors/P-Errors *are* the
/// learning curve.
///
/// `est` is typically a [`FeedbackEst`] sharing `store`; passing the
/// bare inner estimator measures the same workload without feedback
/// resolution (observations are still recorded). Parallel planning is
/// deliberately not used here: the feedback loop is order-dependent by
/// design, unlike [`crate::endtoend::run_workload`].
pub fn run_workload_adaptive(
    db: &Database,
    wl: &Workload,
    est: &dyn CardEst,
    store: &FeedbackStore,
    truth: &TrueCardService,
    cost: &CostModel,
    opts: &RunOptions,
) -> Vec<QueryRun> {
    let _sp = cardbench_obs::span_with("workload", "run", || {
        format!("{} / {} (adaptive)", wl.name, est.name())
    });
    let before = store.stats();
    let fallback: OnceLock<PostgresEst> = OnceLock::new();
    let mut scratch = ExecScratch::new();
    let mut runs = Vec::with_capacity(wl.queries.len());
    for wq in &wl.queries {
        let planned = plan_query_via(
            db,
            wq,
            &|subs| estimate_all(est, db, subs, opts.timeout),
            truth,
            cost,
            &fallback,
        );
        let run = execute_one(db, planned, opts, &mut scratch);
        if run.completed() {
            let _fb = cardbench_obs::span_with("feedback", "adaptive", || format!("Q{}", run.id));
            if let Ok(bound) = BoundQuery::bind(&wq.query, db.catalog()) {
                observe_query(
                    db,
                    store,
                    &wq.query,
                    &bound,
                    &run.sub_est_cards,
                    &run.sub_true_cards,
                );
            }
        }
        runs.push(run);
    }
    record_feedback_metrics(est.name(), &before, &store.stats());
    runs
}

/// Feeds one planned query's (estimate seen, truth) pairs into `store`.
/// Re-projects the sub-plan space (the topology is cached) so dense slot
/// `i` of the recorded cards aligns with its sub-query.
pub fn observe_query(
    db: &Database,
    store: &FeedbackStore,
    query: &JoinQuery,
    bound: &BoundQuery,
    est_cards: &[f64],
    true_cards: &[f64],
) {
    let topo = db.topology(query, bound);
    let subs: Vec<SubPlanQuery> = topo
        .masks()
        .iter()
        .map(|&mask| SubPlanQuery::project(query, mask))
        .collect();
    store.observe_subplans(&subs, est_cards, true_cards);
}

/// Folds this run's feedback-store traffic into the observability
/// registry as before/after deltas (the store is shared across runs and
/// sessions, so absolutes would double-count).
pub fn record_feedback_metrics(method: &str, before: &FeedbackStats, after: &FeedbackStats) {
    use cardbench_obs::counter_add;
    if !cardbench_obs::enabled() {
        return;
    }
    let m = [("method", method)];
    for (family, b, a) in [
        ("cardbench_feedback_hits_total", before.hits, after.hits),
        (
            "cardbench_feedback_misses_total",
            before.misses,
            after.misses,
        ),
        (
            "cardbench_feedback_overrides_total",
            before.overrides,
            after.overrides,
        ),
        (
            "cardbench_feedback_corrections_total",
            before.corrections,
            after.corrections,
        ),
        (
            "cardbench_feedback_observations_total",
            before.observations,
            after.observations,
        ),
        (
            "cardbench_feedback_rejected_total",
            before.rejected,
            after.rejected,
        ),
    ] {
        counter_add(family, &m, a.saturating_sub(b));
    }
}

/// The four phases of the adaptive drift experiment, each a full
/// sequential pass over the workload sharing one feedback store.
#[derive(Debug)]
pub struct AdaptiveExperiment {
    /// The wrapped inner estimator kind.
    pub kind: EstimatorKind,
    /// Pass 1 on pre-cutoff data, cold store: feedback warms up within
    /// the pass (late queries benefit from early ones).
    pub warmup: Vec<QueryRun>,
    /// Pass 2, same data, warm store: exact overrides dominate.
    pub replay: Vec<QueryRun>,
    /// Pass 3 after the temporal bulk insert, stale store: overrides now
    /// carry pre-shift truths, so errors spike — and every execution
    /// refreshes its entries.
    pub post_shift: Vec<QueryRun>,
    /// Pass 4, shifted data, refreshed store: recovery.
    pub recovered: Vec<QueryRun>,
    /// Final cumulative store counters.
    pub stats: FeedbackStats,
}

/// Runs the drift experiment for one inner estimator kind: train on the
/// pre-cutoff half of STATS ([`temporal_split`], as in the Table 6
/// update experiment), stream the workload twice, bulk-insert the
/// post-cutoff rows, and stream it twice more. The inner model is *not*
/// updated at the shift — recovery is carried entirely by re-observed
/// feedback.
#[allow(clippy::too_many_arguments)] // one knob per experimental axis
pub fn run_adaptive_experiment(
    stats_cfg: &StatsConfig,
    wl: &Workload,
    inner: EstimatorKind,
    train: &TrainingSet,
    settings: &EstimatorSettings,
    cost: &CostModel,
    fb_cfg: FeedbackConfig,
    opts: &RunOptions,
) -> AdaptiveExperiment {
    let full = stats_catalog(stats_cfg);
    let (stale_catalog, inserts) = temporal_split(&full, SPLIT_DAY);
    let stale_db = Database::new(stale_catalog);

    let store = Arc::new(FeedbackStore::new(fb_cfg));
    let BuiltEstimator { est, .. } = build_estimator(inner, &stale_db, train, settings);
    let wrapped = FeedbackEst::new(est, Arc::clone(&store), true);

    let truth = TrueCardService::new();
    let warmup = run_workload_adaptive(&stale_db, wl, &wrapped, &store, &truth, cost, opts);
    let replay = run_workload_adaptive(&stale_db, wl, &wrapped, &store, &truth, cost, opts);

    // The temporal shift: append the post-cutoff rows and rebuild the
    // derived state. The true-cardinality cache keys on query identity,
    // not data, so a *fresh* service is mandatory after the shift.
    let mut shifted_db = stale_db;
    for (t, d) in inserts.iter().enumerate() {
        shifted_db
            .catalog_mut()
            .table_mut(TableId(t))
            .append_rows(d)
            .expect("temporal split halves share schemas");
    }
    shifted_db.refresh();
    let truth2 = TrueCardService::new();
    let post_shift = run_workload_adaptive(&shifted_db, wl, &wrapped, &store, &truth2, cost, opts);
    let recovered = run_workload_adaptive(&shifted_db, wl, &wrapped, &store, &truth2, cost, opts);

    AdaptiveExperiment {
        kind: inner,
        warmup,
        replay,
        post_shift,
        recovered,
        stats: store.stats(),
    }
}

/// Median valid sub-plan Q-Error of a pass (NaN when nothing is valid).
pub fn median_q_error(runs: &[QueryRun]) -> f64 {
    let all: Vec<f64> = runs.iter().flat_map(|q| q.q_errors.clone()).collect();
    cardbench_metrics::percentile(&all, 0.5)
}

/// Median P-Error over completed queries of a pass.
pub fn median_p_error(runs: &[QueryRun]) -> f64 {
    let all: Vec<f64> = runs
        .iter()
        .filter(|q| q.completed())
        .map(|q| q.p_error)
        .collect();
    cardbench_metrics::percentile(&all, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bench, BenchConfig};
    use crate::endtoend::run_workload;

    #[test]
    fn replay_with_warm_store_reaches_oracle_accuracy() {
        let b = Bench::build(BenchConfig::fast(7));
        let store = Arc::new(FeedbackStore::new(FeedbackConfig::default()));
        let built = build_estimator(
            EstimatorKind::Postgres,
            &b.stats_db,
            &b.stats_train,
            &b.config.settings,
        );
        let wrapped = FeedbackEst::new(built.est, Arc::clone(&store), true);
        let truth = TrueCardService::new();
        let cost = CostModel::default();
        let opts = RunOptions::default();
        let first = run_workload_adaptive(
            &b.stats_db,
            &b.stats_wl,
            &wrapped,
            &store,
            &truth,
            &cost,
            &opts,
        );
        let second = run_workload_adaptive(
            &b.stats_db,
            &b.stats_wl,
            &wrapped,
            &store,
            &truth,
            &cost,
            &opts,
        );
        // Second pass: every sub-plan was observed, so estimates are the
        // observed truths — oracle Q-Error and P-Error.
        for run in &second {
            assert!(run.completed());
            for &qe in &run.q_errors {
                assert!((qe - 1.0).abs() < 1e-9, "Q{} qe {qe}", run.id);
            }
            assert!(
                (run.p_error - 1.0).abs() < 1e-9,
                "Q{} pe {}",
                run.id,
                run.p_error
            );
        }
        // And no worse than the cold first pass in aggregate.
        assert!(median_q_error(&second) <= median_q_error(&first) + 1e-9);
        let st = store.stats();
        assert!(st.observations > 0 && st.overrides > 0);
    }

    #[test]
    fn adaptive_run_without_feedback_matches_parallel_harness() {
        // The sequential adaptive loop with a disabled wrapper must be
        // bit-identical (non-timing fields) to the parallel harness.
        let b = Bench::build(BenchConfig::fast(9));
        let store = Arc::new(FeedbackStore::default());
        let built = build_estimator(
            EstimatorKind::Postgres,
            &b.stats_db,
            &b.stats_train,
            &b.config.settings,
        );
        let wrapped = FeedbackEst::new(built.est, Arc::clone(&store), false);
        let truth = TrueCardService::new();
        let cost = CostModel::default();
        let adaptive = run_workload_adaptive(
            &b.stats_db,
            &b.stats_wl,
            &wrapped,
            &store,
            &truth,
            &cost,
            &RunOptions::default(),
        );
        let baseline = run_workload(&b.stats_db, &b.stats_wl, wrapped.inner(), &truth, &cost);
        assert_eq!(adaptive.len(), baseline.len());
        for (a, r) in adaptive.iter().zip(&baseline) {
            assert_eq!(a.id, r.id);
            assert_eq!(
                a.sub_est_cards
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>(),
                r.sub_est_cards
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            );
            assert_eq!(a.p_error.to_bits(), r.p_error.to_bits());
            assert_eq!(a.result_rows, r.result_rows);
        }
        // Disabled wrapper still *observes* nothing — the store stayed
        // untouched because observation is the runner's job and the
        // disabled flag only gates resolution; but resolution counters
        // must be zero.
        assert_eq!(store.stats().hits, 0);
    }

    #[test]
    fn drift_experiment_spikes_then_recovers() {
        let stats_cfg = StatsConfig::tiny(5);
        let db = Database::new(stats_catalog(&stats_cfg));
        let wl = cardbench_workload::stats_ceb(
            &db,
            &cardbench_workload::WorkloadConfig {
                templates: 6,
                queries: 8,
                max_tables: 3,
                ..cardbench_workload::WorkloadConfig::stats_ceb(5)
            },
        );
        let settings = EstimatorSettings::fast(5);
        let exp = run_adaptive_experiment(
            &stats_cfg,
            &wl,
            EstimatorKind::Postgres,
            &TrainingSet::default(),
            &settings,
            &CostModel::default(),
            FeedbackConfig::default(),
            &RunOptions::default(),
        );
        // Warm replay on unchanged data is oracle-accurate.
        let q_replay = median_q_error(&exp.replay);
        assert!((q_replay - 1.0).abs() < 1e-9, "replay median {q_replay}");
        // After the shift the stale overrides err; after re-observation
        // the second shifted pass is oracle-accurate again.
        let q_recovered = median_q_error(&exp.recovered);
        assert!(
            (q_recovered - 1.0).abs() < 1e-9,
            "recovered median {q_recovered}"
        );
        assert!(exp.stats.observations > 0);
    }
}
