//! Differential and property tests for the adaptive feedback layer.
//!
//! Three contracts:
//!
//! - a [`FeedbackEst`] whose store holds **zero observations** is
//!   bit-identical to its inner estimator — for every registered kind,
//!   on both the sequential and batch paths;
//! - replaying a workload against a warm store never makes any query's
//!   q-error worse than the warmup pass (warmup monotonicity);
//! - poisoned observations (NaN/±inf/negative estimates or truths) can
//!   never make the store emit a non-finite or negative estimate, and
//!   corrections stay within the clamp band.

use std::sync::{Arc, OnceLock};

use cardbench_engine::{CostModel, TrueCardService};
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_feedback::{FeedbackEst, FeedbackStore, MAX_CORRECTION, WARMUP};
use cardbench_harness::{
    build_estimator, pass, run_workload_adaptive, Bench, BenchConfig, RunOptions,
};
use cardbench_metrics::percentile;
use cardbench_query::{connected_subsets, JoinQuery, Region, SubPlanQuery};
use cardbench_support::proptest::prelude::*;
use cardbench_workload::{stats_ceb, WorkloadConfig};

fn bench() -> &'static Bench {
    static B: OnceLock<Bench> = OnceLock::new();
    B.get_or_init(|| Bench::build(BenchConfig::fast(17)))
}

/// Random acyclic 2–5-table queries on the STATS schema.
fn random_queries(seed: u64) -> Vec<JoinQuery> {
    let b = bench();
    let cfg = WorkloadConfig {
        seed,
        templates: 6,
        queries: 3,
        max_tables: 5,
        max_predicates: 4,
        retries: 10,
        max_subplan_card: 1e6,
    };
    stats_ceb(&b.stats_db, &cfg)
        .queries
        .into_iter()
        .map(|wq| wq.query)
        .collect()
}

fn subplans(q: &JoinQuery) -> Vec<SubPlanQuery> {
    connected_subsets(q)
        .into_iter()
        .map(|m| SubPlanQuery::project(q, m))
        .collect()
}

/// Every kind, wrapped around an *empty* enabled store: the wrapper must
/// be a bit-exact no-op on both the per-sub-plan and the batch path.
#[test]
fn empty_store_is_bit_identical_to_inner_for_all_kinds() {
    let b = bench();
    let db = &b.stats_db;
    for kind in EstimatorKind::ALL {
        let built = build_estimator(kind, db, &b.stats_train, &b.config.settings);
        let wrapped = FeedbackEst::new(built.est, Arc::new(FeedbackStore::default()));
        for q in random_queries(31) {
            let subs = subplans(&q);
            let inner_batch = wrapped.inner().estimate_batch(db, &subs);
            let outer_batch = wrapped.estimate_batch(db, &subs);
            for (i, sub) in subs.iter().enumerate() {
                let want = wrapped.inner().estimate(db, sub);
                let got = wrapped.estimate(db, sub);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "{} mask {:?}: empty-store wrapper perturbed estimate",
                    kind.name(),
                    sub.mask
                );
                assert_eq!(
                    outer_batch[i].to_bits(),
                    inner_batch[i].to_bits(),
                    "{} mask {:?}: empty-store wrapper perturbed batch",
                    kind.name(),
                    sub.mask
                );
            }
        }
        assert!(
            wrapped.store().is_empty(),
            "{}: estimation alone must not populate the store",
            kind.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Warmup monotonicity: a second adaptive pass over the same
    /// workload never has a worse q-error than the first on any query,
    /// and the medians are non-increasing (observed truths only ever
    /// add information).
    #[test]
    fn replay_qerror_never_worse_than_warmup(seed in 0u64..1000) {
        let b = bench();
        let built = build_estimator(
            EstimatorKind::Postgres,
            &b.stats_db,
            &b.stats_train,
            &b.config.settings,
        );
        let store = Arc::new(FeedbackStore::default());
        let est = FeedbackEst::new(built.est, Arc::clone(&store));
        let truth = TrueCardService::new();
        let cost = CostModel::default();
        let wl = {
            let cfg = WorkloadConfig { seed, templates: 4, queries: 4, ..WorkloadConfig::stats_ceb(seed) };
            stats_ceb(&b.stats_db, &cfg)
        };
        let opts = RunOptions::default();
        let warm = run_workload_adaptive(&b.stats_db, &wl, &est, est.store(), &truth, &cost, &opts);
        let replay = run_workload_adaptive(&b.stats_db, &wl, &est, est.store(), &truth, &cost, &opts);
        for (w, r) in warm.iter().zip(&replay) {
            let wq = w.q_errors.iter().cloned().fold(1.0, f64::max);
            let rq = r.q_errors.iter().cloned().fold(1.0, f64::max);
            prop_assert!(
                rq <= wq,
                "Q{}: replay max q-error {rq} worse than warmup {wq}",
                w.id
            );
        }
        let median = |runs| percentile(&pass::q_errors(runs), 0.5);
        prop_assert!(median(&replay) <= median(&warm));
    }

    /// Poisoning: arbitrary garbage observations (non-finite or negative
    /// estimates and truths, plus wild-but-valid magnitudes) never make
    /// `apply` return a non-finite or negative value, and any correction
    /// stays inside the clamp band around the inner estimate. The garbage
    /// arrives on distinct structural siblings of one query, followed by
    /// `WARMUP` wild ones, so the template is warm and the band is
    /// checked on every case.
    #[test]
    fn poisoned_store_never_emits_non_finite_or_unclamped(
        seed in 0u64..1000,
        est_picks in prop::collection::vec(0usize..7, 8),
        truth_picks in prop::collection::vec(0usize..6, 8),
    ) {
        const EST_POISON: [f64; 7] = [
            f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0, 1e-300, 1e300,
        ];
        const TRUTH_POISON: [f64; 6] = [
            f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -5.0, 0.0, 1e18,
        ];
        let picks = est_picks.iter().zip(&truth_picks).map(|(&e, &t)| (EST_POISON[e], TRUTH_POISON[t]));
        let wild = std::iter::repeat_n((1e-300, 1e18), WARMUP as usize);
        let values: Vec<(f64, f64)> = picks.chain(wild).collect();
        let store = FeedbackStore::default();
        let queries = random_queries(seed);
        let q = queries.iter().find(|q| !q.predicates.is_empty()).expect("a filtered query");
        for (i, &(e, t)) in values.iter().enumerate() {
            store.observe(&sibling(q, i as i64), e, t);
        }
        for inner in [0.0, 1.0, 42.5, 1e12, f64::MAX] {
            let out = store.apply(q, inner);
            prop_assert!(out.is_finite() && out >= 0.0, "apply({inner}) produced {out}");
        }
        // A structural sibling with no exact entry only ever sees a
        // clamped multiplicative correction.
        let sib = sibling(q, 1_000_000);
        let before = store.stats().corrections;
        for inner in [1.0, 1e6] {
            let out = store.apply(&sib, inner);
            prop_assert!(out.is_finite() && out >= 0.0);
            let ratio = out / inner;
            prop_assert!(
                (1.0 / MAX_CORRECTION - 1e-12..=MAX_CORRECTION + 1e-12).contains(&ratio),
                "correction ratio {ratio} escaped the clamp band"
            );
        }
        let stats = store.stats();
        prop_assert_eq!(stats.corrections - before, 2, "the template was warm");
        // Every call is accounted for: a poisoned truth is rejected; an
        // accepted one is an observation, and its sample is rejected too
        // when the estimate beside it is poisoned.
        let bad_truth = |t: f64| !t.is_finite() || t < 0.0;
        let bad_est = |e: f64| !e.is_finite() || e <= 0.0;
        let rejected = values.iter().filter(|&&(e, t)| bad_truth(t) || bad_est(e)).count();
        let observed = values.iter().filter(|&&(_, t)| !bad_truth(t)).count();
        prop_assert_eq!((stats.observations, stats.rejected), (observed as u64, rejected as u64));
    }
}

/// `q` with every literal moved by `by`: a structural sibling (same
/// template, other constants), and `q` itself for `by == 0`.
fn sibling(q: &JoinQuery, by: i64) -> JoinQuery {
    let shift = |v: i64| {
        if v == i64::MIN || v == i64::MAX {
            v
        } else {
            v + by
        }
    };
    let mut s = q.clone();
    for p in &mut s.predicates {
        p.region = match &p.region {
            Region::Range { lo, hi } => Region::Range {
                lo: shift(*lo),
                hi: shift(*hi),
            },
            Region::In(values) => Region::In(values.iter().map(|&v| shift(v)).collect()),
        };
    }
    s
}
