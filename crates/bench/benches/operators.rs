//! Engine operator micro-benchmarks: scans and the three join
//! algorithms at benchmark-relevant input sizes.

use cardbench_support::criterion::{BenchmarkId, Criterion};
use cardbench_support::{criterion_group, criterion_main};

use cardbench_datagen::{stats_catalog, StatsConfig};
use cardbench_engine::{execute_with, Database, ExecScratch, JoinAlgo, PhysicalPlan, ScanMethod};
use cardbench_query::{BoundQuery, JoinEdge, JoinQuery, Predicate, Region, TableMask};

fn db() -> Database {
    Database::new(stats_catalog(&StatsConfig {
        scale: 0.02,
        ..StatsConfig::default()
    }))
}

fn join_plan(algo: JoinAlgo) -> PhysicalPlan {
    PhysicalPlan::Join {
        algo,
        left: Box::new(PhysicalPlan::Scan {
            table_pos: 0,
            method: ScanMethod::Seq,
            mask: TableMask::single(0),
            est_rows: 1000.0,
        }),
        right: Box::new(PhysicalPlan::Scan {
            table_pos: 1,
            method: ScanMethod::Seq,
            mask: TableMask::single(1),
            est_rows: 1000.0,
        }),
        edge: 0,
        mask: TableMask::full(2),
        est_rows: 1000.0,
    }
}

fn bench_joins(c: &mut Criterion) {
    let db = db();
    let q = JoinQuery {
        tables: vec!["posts".into(), "comments".into()],
        joins: vec![JoinEdge::new(0, "Id", 1, "PostId")],
        predicates: vec![],
    };
    let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
    // One arena across iterations, as the harness runs plans: the
    // timings are the operators', not the allocator's.
    let mut scratch = ExecScratch::new();
    let mut group = c.benchmark_group("join_algorithms");
    for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::IndexNestedLoop] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{algo:?}")),
            &algo,
            |b, &algo| b.iter(|| execute_with(&join_plan(algo), &bound, &db, &mut scratch)),
        );
    }
    group.finish();
}

fn bench_scans(c: &mut Criterion) {
    let db = db();
    let q = JoinQuery::single(
        "votes",
        vec![Predicate::new(0, "VoteTypeId", Region::eq(2))],
    );
    let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
    let mut scratch = ExecScratch::new();
    let mut group = c.benchmark_group("scan_methods");
    for method in [ScanMethod::Seq, ScanMethod::Index] {
        let plan = PhysicalPlan::Scan {
            table_pos: 0,
            method,
            mask: TableMask::single(0),
            est_rows: 100.0,
        };
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{method:?}")),
            &plan,
            |b, plan| b.iter(|| execute_with(plan, &bound, &db, &mut scratch)),
        );
    }
    group.finish();
}

fn bench_truecard(c: &mut Criterion) {
    use cardbench_engine::exact_cardinality;
    let db = db();
    let q = JoinQuery {
        tables: vec!["users".into(), "posts".into(), "comments".into()],
        joins: vec![
            JoinEdge::new(0, "Id", 1, "OwnerUserId"),
            JoinEdge::new(1, "Id", 2, "PostId"),
        ],
        predicates: vec![Predicate::new(0, "Reputation", Region::ge(50))],
    };
    c.bench_function("truecard_message_passing_3way", |b| {
        b.iter(|| exact_cardinality(&db, &q).unwrap())
    });
}

criterion_group!(benches, bench_joins, bench_scans, bench_truecard);
criterion_main!(benches);
