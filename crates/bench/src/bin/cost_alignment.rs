//! Cost-model ↔ executor alignment check: measures the wall time of
//! every join algorithm and scan method across input sizes and reports
//! the rank correlation with the cost model's predictions. A healthy
//! engine keeps this high — it is the assumption behind the paper's use
//! of plan cost (PPC) as a proxy for execution time in P-Error.

use std::time::Instant;

use cardbench_engine::{
    execute_with, CostModel, Database, ExecScratch, JoinAlgo, PhysicalPlan, ScanMethod,
};
use cardbench_metrics::spearman;
use cardbench_query::{BoundQuery, JoinEdge, JoinQuery, TableMask};
use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

fn db_with(rows_a: usize, rows_b: usize, keys: i64) -> Database {
    let mut cat = Catalog::new();
    for (name, rows) in [("a", rows_a), ("b", rows_b)] {
        cat.add_table(
            Table::from_columns(
                TableSchema::new(
                    name,
                    vec![
                        ColumnDef::new("k", ColumnKind::ForeignKey),
                        ColumnDef::new("v", ColumnKind::Numeric),
                    ],
                ),
                vec![
                    Column::from_values((0..rows as i64).map(|i| i % keys).collect()),
                    Column::from_values((0..rows as i64).collect()),
                ],
            )
            .unwrap(),
        );
    }
    Database::new(cat)
}

fn main() {
    let _trace = cardbench_bench::init_tracing();
    let cm = CostModel::default();
    // One arena for every timed run, as the harness executes plans.
    let mut scratch = ExecScratch::new();
    let mut model = Vec::new();
    let mut wall = Vec::new();
    println!(
        "{:<18} {:>8} {:>8} {:>10} {:>12} {:>12}",
        "operator", "left", "right", "out", "model cost", "wall"
    );
    for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::IndexNestedLoop] {
        for (ra, rb) in [(2_000, 2_000), (20_000, 5_000), (80_000, 80_000)] {
            let keys = (rb / 4).max(1) as i64;
            let db = db_with(ra, rb, keys);
            let q = JoinQuery {
                tables: vec!["a".into(), "b".into()],
                joins: vec![JoinEdge::new(0, "k", 1, "k")],
                predicates: vec![],
            };
            let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
            let plan = PhysicalPlan::Join {
                algo,
                left: Box::new(PhysicalPlan::Scan {
                    table_pos: 0,
                    method: ScanMethod::Seq,
                    mask: TableMask::single(0),
                    est_rows: ra as f64,
                }),
                right: Box::new(PhysicalPlan::Scan {
                    table_pos: 1,
                    method: ScanMethod::Seq,
                    mask: TableMask::single(1),
                    est_rows: rb as f64,
                }),
                edge: 0,
                mask: TableMask::full(2),
                est_rows: 0.0,
            };
            let (out, _) = execute_with(&plan, &bound, &db, &mut scratch); // warm
            let t0 = Instant::now();
            execute_with(&plan, &bound, &db, &mut scratch);
            let dt = t0.elapsed().as_secs_f64();
            let c = cm.join_cost(algo, ra as f64, rb as f64, out as f64)
                + cm.scan_cost(ScanMethod::Seq, ra as f64, ra as f64)
                + cm.scan_cost(ScanMethod::Seq, rb as f64, rb as f64);
            println!(
                "{:<18} {ra:>8} {rb:>8} {out:>10} {c:>12.1} {:>11.3}ms",
                format!("{algo:?}"),
                dt * 1e3
            );
            model.push(c);
            wall.push(dt);
        }
    }
    println!(
        "\nSpearman(model cost, wall time) over {} operator points: {:.3}",
        model.len(),
        spearman(&model, &wall)
    );
}
