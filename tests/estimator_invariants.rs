//! The conformance table's [`ROWS`] and [`JOINS`] columns: unfiltered
//! estimates of the rows that promise them stay near the true
//! cardinality. `tests/conformance.rs` checks the other columns.

mod kinds;

use cardbench::engine::TrueCardService;
use cardbench::harness::{build_estimator, Bench, BenchConfig};
use cardbench::prelude::*;
use cardbench::query::TableMask;

use kinds::{JOINS, ROWS, TABLE};

/// Every row that makes `promise` answers each of `queries(b)`, its
/// predicates dropped, within q-error `bound` on `BenchConfig::fast(seed)`.
fn check(seed: u64, promise: u8, bound: f64, queries: impl Fn(&Bench) -> Vec<JoinQuery>) {
    let b = Bench::build(BenchConfig::fast(seed));
    let (db, truth) = (&b.stats_db, TrueCardService::new());
    let queries = queries(&b);
    for row in TABLE.iter().filter(|row| row.makes(promise)) {
        let est = build_estimator(row.kind, db, &b.stats_train, &b.config.settings).est;
        for mut q in queries.iter().cloned() {
            q.predicates.clear();
            let t = truth.cardinality(db, &q).unwrap().max(1.0);
            let sub = SubPlanQuery::project(&q, TableMask::full(q.table_count()));
            let e = est.estimate(db, &sub).max(1.0);
            let (name, tables) = (row.kind.name(), &q.tables);
            assert!((e / t).max(t / e) < bound, "{name} {tables:?}: {e} vs {t}");
        }
    }
}

/// The [`ROWS`] promise: each unfiltered STATS table within 1.25× of
/// its row count.
#[test]
fn unfiltered_single_table_near_row_count() {
    let tables = ["users", "posts", "comments"].map(|t| JoinQuery::single(t, vec![]));
    check(42, ROWS, 1.25, |_| tables.to_vec());
}

/// The [`JOINS`] promise: each unfiltered 2-table workload join within
/// q-error 3 of the truth.
#[test]
fn data_driven_unfiltered_joins_tight() {
    check(43, JOINS, 3.0, |b| {
        let queries = b.stats_wl.queries.iter().map(|wq| wq.query.clone());
        queries.filter(|q| q.table_count() == 2).collect()
    });
}
