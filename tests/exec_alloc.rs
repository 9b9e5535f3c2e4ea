//! Warm re-execution is allocation-free: once one `ExecScratch` has
//! executed every STATS-CEB plan the PostgreSQL, BayesCard and Sketch
//! estimators lead to, executing them all again performs no allocation
//! or reallocation of 64 KiB or more — and every plan's result and
//! `ExecStats` through that shared arena equal a fresh arena's.
//!
//! One test only: the counting allocator is process-wide, and a second
//! test thread would allocate into the count.

mod support;

use std::sync::OnceLock;

use cardbench::datagen::stats_catalog;
use cardbench::engine::{
    execute, execute_with, CostModel, Database, ExecScratch, PhysicalPlan, TrueCardService,
};
use cardbench::estimators::lw::TrainingSet;
use cardbench::estimators::postgres::PostgresEst;
use cardbench::estimators::EstimatorKind;
use cardbench::harness::{build_estimator, estimate_all, plan_query_via, BenchConfig};
use cardbench::query::BoundQuery;
use cardbench::workload::stats_ceb;

use support::{counting, LARGE_BYTES};

#[test]
fn warm_sweep_of_ceb_plans_allocates_nothing_large() {
    let cfg = BenchConfig::standard(7);
    let db = Database::new(stats_catalog(&cfg.stats));
    let queries = stats_ceb(&db, &cfg.stats_workload);
    let truth = TrueCardService::new();
    let cost = CostModel::default();
    let fallback: OnceLock<PostgresEst> = OnceLock::new();
    let none = TrainingSet::default();

    let mut plans: Vec<(BoundQuery, PhysicalPlan, f64)> = Vec::new();
    for kind in [
        EstimatorKind::Postgres,
        EstimatorKind::BayesCard,
        EstimatorKind::Sketch,
    ] {
        let built = build_estimator(kind, &db, &none, &cfg.settings);
        for wq in &queries.queries {
            let planned = plan_query_via(
                &db,
                wq,
                &|subs| estimate_all(built.est.as_ref(), &db, subs, None),
                &truth,
                &cost,
                &fallback,
            );
            let (bound, plan) = planned.plan.expect("every STATS-CEB query plans");
            plans.push((bound, plan, wq.true_card));
        }
    }

    // Warm-up sweep, checked against a fresh arena per plan. It has to
    // allocate — which also shows that the counter counts.
    let mut scratch = ExecScratch::new();
    let mut warm = Vec::with_capacity(plans.len());
    let ((), first_sweep) = counting(|| {
        for (bound, plan, true_card) in &plans {
            let reused = execute_with(plan, bound, &db, &mut scratch);
            assert_eq!(reused.0 as f64, *true_card);
            assert_eq!(reused, execute(plan, bound, &db), "fresh vs reused arena");
            warm.push(reused);
        }
    });
    assert!(first_sweep.large > 0);
    let retained = scratch.retained_bytes();
    assert!(retained > LARGE_BYTES as u64, "the arena holds the buffers");

    let ((), warm_sweep) = counting(|| {
        for ((bound, plan, _), first) in plans.iter().zip(&warm) {
            let again = execute_with(plan, bound, &db, &mut scratch);
            assert_eq!(&again, first);
        }
    });
    assert_eq!(warm_sweep.large, 0, "large allocations in the warm sweep");
    assert_eq!(scratch.retained_bytes(), retained, "the arena grew");
}
