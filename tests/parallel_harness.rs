//! The parallel harness must be a pure optimization: identical results
//! at every thread count, and a true-cardinality service that is safe
//! (and consistent) under concurrent hammering.

use cardbench_engine::{exact_cardinality, CostModel, TrueCardService};
use cardbench_estimators::EstimatorKind;
use cardbench_harness::{build_estimator, run_workload, Bench, BenchConfig, RunOptions};
use cardbench_query::{connected_subsets, SubPlanQuery};

/// Sequential and 4-way-parallel runs must agree bit-for-bit on every
/// estimate, truth, metric, and result count — including for sampling
/// estimators, whose RNG is derived per sub-plan rather than carried
/// across calls.
#[test]
fn thread_count_does_not_change_results() {
    let b = Bench::build(BenchConfig::fast(6));
    let cost = CostModel::default();
    for kind in [EstimatorKind::Postgres, EstimatorKind::WjSample] {
        let built = build_estimator(kind, &b.stats_db, &b.stats_train, &b.config.settings);
        let run = |threads: usize| {
            let truth = TrueCardService::new();
            run_workload(
                &b.stats_db,
                &b.stats_wl,
                built.est.as_ref(),
                &truth,
                &cost,
                &RunOptions {
                    threads,
                    ..RunOptions::default()
                },
            )
        };
        let seq = run(1);
        let par = run(4);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.id, p.id, "{kind:?}: workload order changed");
            assert_eq!(s.sub_est_cards, p.sub_est_cards, "{kind:?} Q{}", s.id);
            assert_eq!(s.sub_true_cards, p.sub_true_cards, "{kind:?} Q{}", s.id);
            assert_eq!(s.q_errors, p.q_errors, "{kind:?} Q{}", s.id);
            assert_eq!(s.p_error, p.p_error, "{kind:?} Q{}", s.id);
            assert_eq!(s.result_rows, p.result_rows, "{kind:?} Q{}", s.id);
        }
    }
}

/// Eight threads hammering one service over the same sub-plan space:
/// every lookup must match the directly computed exact cardinality, and
/// the cache must end up with exactly one entry per distinct sub-plan.
#[test]
fn truecard_service_is_consistent_under_concurrency() {
    let b = Bench::build(BenchConfig::fast(9));
    let db = &b.stats_db;
    let subplans: Vec<SubPlanQuery> = b
        .stats_wl
        .queries
        .iter()
        .take(6)
        .flat_map(|wq| {
            connected_subsets(&wq.query)
                .into_iter()
                .map(|m| SubPlanQuery::project(&wq.query, m))
        })
        .collect();
    let expected: Vec<f64> = subplans
        .iter()
        .map(|sp| exact_cardinality(db, &sp.query).unwrap())
        .collect();

    let service = TrueCardService::new();
    std::thread::scope(|scope| {
        for t in 0..8 {
            let service = &service;
            let subplans = &subplans;
            let expected = &expected;
            scope.spawn(move || {
                // Each thread walks the space from a different offset so
                // the same keys are in flight on several threads at once.
                for i in 0..subplans.len() {
                    let j = (i + t * subplans.len() / 8) % subplans.len();
                    let got = service.cardinality(db, &subplans[j].query).unwrap();
                    assert_eq!(got, expected[j], "subplan {j} from thread {t}");
                }
            });
        }
    });

    let distinct: std::collections::HashSet<u64> = subplans
        .iter()
        .map(|sp| sp.query.canonical_hash())
        .collect();
    assert_eq!(service.cached(), distinct.len());
}
