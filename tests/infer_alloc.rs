//! The warm-allocation column of `kinds::TABLE`. Once a thread has swept
//! a workload's sub-plan sets through a kind, a second sweep allocates
//! exactly the returned `Vec<f64>` per `estimate_batch` call and nothing
//! of 64 KiB or more (`Alloc::Answer`, over the 146 sets of
//! `BenchConfig::standard(7)`), or at most the row's recorded total
//! (`Alloc::AtMost`, over the 20 sets of `BenchConfig::fast(9)`). Either
//! way a call on a thread that has never estimated (a fresh scratch)
//! returns the bits the warm scratch returns.
//!
//! One test only: the counting allocator is process-wide, and a second
//! test thread would allocate into the count.

mod kinds;
mod support;

use cardbench::datagen::stats_catalog;
use cardbench::engine::Database;
use cardbench::estimators::lw::TrainingSet;
use cardbench::harness::{build_estimator, BenchConfig};
use cardbench::query::SubPlanQuery;
use cardbench::workload::{stats_ceb, training_workload};

use cardbench_support::par;
use kinds::{Alloc, TABLE};
use support::{counting, Counted};

/// A configuration's STATS database, training set and workload sub-plan
/// sets, built as `Bench::build` builds them.
type Fixture = (BenchConfig, Database, TrainingSet, Vec<Vec<SubPlanQuery>>);

fn fixture(cfg: BenchConfig) -> Fixture {
    let db = Database::new(stats_catalog(&cfg.stats));
    let (max_tables, seed) = (cfg.stats_workload.max_tables, cfg.settings.seed ^ 0x7a);
    // Independent, and each takes seconds in an unoptimized build.
    let (wl, (queries, cards)) = std::thread::scope(|scope| {
        let train = scope.spawn(|| training_workload(&db, cfg.training_queries, max_tables, seed));
        let wl = stats_ceb(&db, &cfg.stats_workload);
        (wl, train.join().expect("training_workload does not panic"))
    });
    let sets = wl
        .queries
        .iter()
        .map(|q| SubPlanQuery::project_all(&q.query));
    (cfg, db, TrainingSet { queries, cards }, sets.collect())
}

#[test]
fn warm_estimate_batch_allocates_only_its_answer() {
    let mut standard = BenchConfig::standard(7);
    // The forward pass does not depend on how long a head trained.
    standard.settings.mscn.epochs = 2;
    standard.settings.uae.epochs = 2;
    let (standard, fast) = std::thread::scope(|scope| {
        let fast = scope.spawn(|| fixture(BenchConfig::fast(9)));
        (fixture(standard), fast.join().expect("fast(9) builds"))
    });
    assert_eq!((standard.3.len(), fast.3.len()), (146, 20));
    let fixture_of = |alloc| match alloc {
        Alloc::Answer => &standard,
        Alloc::AtMost(_) => &fast,
    };
    // Every fit, and its answers from threads that never estimated (a
    // scratch nothing has touched), before any count: these may run in
    // parallel, the counted sweeps may not.
    let fitted = par::map(&TABLE, 2, |_, row| {
        let (cfg, db, train, sets) = fixture_of(row.alloc);
        let est = build_estimator(row.kind, db, train, &cfg.settings).est;
        let fresh = |subs: &Vec<SubPlanQuery>| {
            let call = std::thread::scope(|s| s.spawn(|| est.estimate_batch(db, subs)).join());
            let batch = call.expect("estimate_batch does not panic");
            batch.into_iter().map(f64::to_bits).collect()
        };
        let fresh: Vec<Vec<u64>> = sets.iter().map(fresh).collect();
        (est, fresh)
    });

    for (row, (est, fresh)) in TABLE.iter().zip(&fitted) {
        let (name, est) = (row.kind.name(), est.as_ref());
        let (_, db, _, sets) = fixture_of(row.alloc);
        // One sweep on this thread: every call's bits and what the
        // allocator was asked for during the calls (and only then).
        let call = |subs: &Vec<SubPlanQuery>| {
            let (batch, counted) = counting(|| est.estimate_batch(db, subs));
            (batch.into_iter().map(f64::to_bits).collect(), counted)
        };
        let sweep = || -> (Vec<Vec<u64>>, Vec<Counted>) { sets.iter().map(call).unzip() };

        // The sweep that warms this thread's scratch (the kinds share
        // it: a later kind may find it warm already), and a warm one.
        let (first, _) = sweep();
        assert_eq!(&first, fresh, "{name}: fresh vs warming scratch");
        let (again, warm) = sweep();
        assert_eq!(&again, fresh, "{name}: fresh vs warm scratch");
        match row.alloc {
            Alloc::Answer => {
                for (q, c) in warm.iter().enumerate() {
                    assert_eq!((c.allocs, c.large), (1, 0), "{name}: warm call {q}");
                }
            }
            Alloc::AtMost(most) => {
                let allocs: u64 = warm.iter().map(|c| c.allocs).sum();
                println!("{name}: {allocs} allocations over the warm sweep");
                assert!(allocs <= most, "{name}: the ratchet is {most}");
            }
        }
    }
}
