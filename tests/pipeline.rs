//! Full-pipeline integration test: build datasets and workloads, train a
//! representative estimator from each class, run the end-to-end loop,
//! and assert the structural findings the paper reports.

use cardbench::engine::{CostModel, TrueCardService};
use cardbench::harness::{
    build_estimator, run_workload, Bench, BenchConfig, MethodRun, RunOptions,
};
use cardbench::prelude::*;

fn run_kind(b: &Bench, kind: EstimatorKind) -> MethodRun {
    let built = build_estimator(kind, &b.stats_db, &b.stats_train, &b.config.settings);
    let truth = TrueCardService::new();
    let queries = run_workload(
        &b.stats_db,
        &b.stats_wl,
        built.est.as_ref(),
        &truth,
        &CostModel::default(),
        &RunOptions::default(),
    );
    MethodRun {
        kind,
        train_time: built.train_time,
        model_size: built.model_size,
        queries,
    }
}

#[test]
fn representative_methods_complete_and_agree_on_results() {
    let b = Bench::build(BenchConfig::fast(21));
    for kind in [
        EstimatorKind::TrueCard,
        EstimatorKind::Postgres,
        EstimatorKind::PessEst,
        EstimatorKind::BayesCard,
    ] {
        let run = run_kind(&b, kind);
        assert_eq!(run.queries.len(), b.stats_wl.queries.len());
        for (qr, wq) in run.queries.iter().zip(&b.stats_wl.queries) {
            // Every plan, however chosen, computes the correct count.
            assert_eq!(
                qr.result_rows as f64,
                wq.true_card,
                "{} Q{} wrong result",
                kind.name(),
                qr.id
            );
            assert!(qr.p_error >= 1.0 - 1e-9, "{} Q{}", kind.name(), qr.id);
            assert!(qr.q_errors.iter().all(|&q| q >= 1.0));
        }
    }
}

#[test]
fn truecard_q_and_p_errors_are_exactly_one() {
    let b = Bench::build(BenchConfig::fast(22));
    let run = run_kind(&b, EstimatorKind::TrueCard);
    for qr in &run.queries {
        assert!(qr.q_errors.iter().all(|&q| (q - 1.0).abs() < 1e-9));
        assert!((qr.p_error - 1.0).abs() < 1e-9);
    }
}

#[test]
fn pessest_never_underestimates_any_subplan() {
    use cardbench::query::{connected_subsets, SubPlanQuery};
    let b = Bench::build(BenchConfig::fast(23));
    let built = build_estimator(
        EstimatorKind::PessEst,
        &b.stats_db,
        &b.stats_train,
        &b.config.settings,
    );
    let truth = TrueCardService::new();
    for wq in &b.stats_wl.queries {
        for mask in connected_subsets(&wq.query) {
            let sp = SubPlanQuery::project(&wq.query, mask);
            let est = built.est.estimate(&b.stats_db, &sp);
            let t = truth.cardinality(&b.stats_db, &sp.query).unwrap();
            assert!(
                est >= t - 1e-6,
                "PessEst underestimated Q{} {:?}: {est} < {t}",
                wq.id,
                sp.query.tables
            );
        }
    }
}

#[test]
fn data_driven_beats_naive_sampling_on_q_error() {
    // The paper's O1 in miniature: BayesCard's sub-plan estimates beat a
    // tiny uniform sample with join uniformity, on median Q-Error.
    let b = Bench::build(BenchConfig::fast(24));
    let bayes = run_kind(&b, EstimatorKind::BayesCard);
    let uni = run_kind(&b, EstimatorKind::UniSample);
    let med = |r: &MethodRun| cardbench::metrics::percentile(&r.all_q_errors(), 0.5);
    assert!(
        med(&bayes) <= med(&uni),
        "BayesCard {} vs UniSample {}",
        med(&bayes),
        med(&uni)
    );
}
