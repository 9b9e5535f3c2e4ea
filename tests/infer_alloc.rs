//! Warm inference is allocation-free apart from the answer: once a
//! thread has swept the 146 STATS-CEB sub-plan sets through each of the
//! six batched families (MSCN, LW-NN, LW-XGB, BayesCard, DeepDB, FLAT),
//! a second sweep performs exactly one allocation per `estimate_batch`
//! call — the returned `Vec<f64>` — and none of 64 KiB or more; and a
//! call on a thread that has never estimated (a fresh scratch) returns
//! the bits the warm scratch returns.
//!
//! One test only: the counting allocator is process-wide, and a second
//! test thread would allocate into the count.

mod support;

use cardbench::datagen::stats_catalog;
use cardbench::engine::Database;
use cardbench::estimators::lw::TrainingSet;
use cardbench::estimators::{CardEst, EstimatorKind};
use cardbench::harness::{build_estimator, BenchConfig};
use cardbench::query::{connected_subsets, SubPlanQuery};
use cardbench::workload::{stats_ceb, training_workload};

use support::{counting, Counted};

#[test]
fn warm_estimate_batch_allocates_only_its_answer() {
    let mut cfg = BenchConfig::standard(7);
    // The forward pass does not depend on how long the head trained.
    cfg.settings.mscn.epochs = 2;
    let db = Database::new(stats_catalog(&cfg.stats));
    let queries = stats_ceb(&db, &cfg.stats_workload);
    let (train_queries, cards) = training_workload(
        &db,
        cfg.training_queries,
        cfg.stats_workload.max_tables,
        cfg.settings.seed ^ 0x7a,
    );
    let train = TrainingSet {
        queries: train_queries,
        cards,
    };
    let sets: Vec<Vec<SubPlanQuery>> = queries
        .queries
        .iter()
        .map(|wq| {
            connected_subsets(&wq.query)
                .into_iter()
                .map(|mask| SubPlanQuery::project(&wq.query, mask))
                .collect()
        })
        .collect();
    assert_eq!(sets.len(), 146);

    for kind in [
        EstimatorKind::Mscn,
        EstimatorKind::LwNn,
        EstimatorKind::LwXgb,
        EstimatorKind::BayesCard,
        EstimatorKind::DeepDb,
        EstimatorKind::Flat,
    ] {
        let est = build_estimator(kind, &db, &train, &cfg.settings).est;
        let est: &dyn CardEst = est.as_ref();
        // One sweep on this thread: every call's bits and what the
        // allocator was asked for during the calls (and only then).
        let sweep = || -> (Vec<Vec<u64>>, Vec<Counted>) {
            sets.iter()
                .map(|subs| {
                    let (batch, counted) = counting(|| est.estimate_batch(&db, subs));
                    (batch.into_iter().map(f64::to_bits).collect(), counted)
                })
                .unzip()
        };

        // Every call on a thread of its own: a scratch nothing has
        // touched.
        let fresh: Vec<Vec<u64>> = sets
            .iter()
            .map(|subs| {
                std::thread::scope(|scope| {
                    let call = scope.spawn(|| est.estimate_batch(&db, subs));
                    let batch = call.join().expect("estimate_batch does not panic");
                    batch.into_iter().map(f64::to_bits).collect()
                })
            })
            .collect();

        // The sweep that warms this thread's scratch (the kinds share
        // it: a later kind may find it warm already).
        let (first, _) = sweep();
        assert_eq!(first, fresh, "{}: fresh vs warming scratch", kind.name());

        let (again, warm) = sweep();
        assert_eq!(again, fresh, "{}: fresh vs warm scratch", kind.name());
        for (q, counted) in warm.iter().enumerate() {
            assert_eq!(
                *counted,
                Counted {
                    allocs: 1,
                    large: 0
                },
                "{}: query {q} of the warm sweep allocated more than its answer",
                kind.name()
            );
        }
    }
}
