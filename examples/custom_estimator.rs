//! Plugging a custom estimator into the benchmark.
//!
//! Implements `CardEst` for a naive constant-selectivity estimator and
//! runs it through the same end-to-end pipeline as the built-in methods,
//! comparing its P-Error against the PostgreSQL baseline.
//!
//! Run with `cargo run --release --example custom_estimator`.

use cardbench::engine::{CostModel, Database, TrueCardService};
use cardbench::estimators::postgres::PostgresEst;
use cardbench::estimators::CardEst;
use cardbench::harness::{run_workload, MethodRun, RunOptions};
use cardbench::metrics::percentile_triple;
use cardbench::prelude::*;

/// "Every predicate keeps 10% of the rows; joins multiply sizes by a
/// constant factor." About as naive as it gets.
struct TenPercent;

impl CardEst for TenPercent {
    fn name(&self) -> &'static str {
        "TenPercent"
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        let mut card = 1.0f64;
        for name in &sub.query.tables {
            let rows = db
                .catalog()
                .table_by_name(name)
                .map_or(1.0, |t| t.row_count() as f64);
            card *= rows;
        }
        // Constant join reduction and per-predicate selectivity.
        card *= 0.001f64.powi(sub.query.joins.len() as i32);
        card *= 0.1f64.powi(sub.query.predicates.len() as i32);
        card.max(1.0)
    }
}

fn main() {
    use cardbench::datagen::{stats_catalog, StatsConfig};
    use cardbench::workload::{stats_ceb, WorkloadConfig};

    let db = Database::new(stats_catalog(&StatsConfig {
        scale: 0.01,
        ..StatsConfig::default()
    }));
    let wl = stats_ceb(
        &db,
        &WorkloadConfig {
            templates: 20,
            queries: 25,
            ..WorkloadConfig::stats_ceb(9)
        },
    );
    let cost = CostModel::default();
    let truth = TrueCardService::new();
    let opts = RunOptions::default();

    let custom = TenPercent;
    let custom_runs = run_workload(&db, &wl, &custom, &truth, &cost, &opts);
    let pg = PostgresEst::fit(&db);
    let pg_runs = run_workload(&db, &wl, &pg, &truth, &cost, &opts);

    for (name, runs) in [("TenPercent", custom_runs), ("PostgreSQL", pg_runs)] {
        let run = MethodRun {
            kind: EstimatorKind::Postgres, // label only used for display here
            train_time: std::time::Duration::ZERO,
            model_size: 0,
            queries: runs,
        };
        let (q50, q90, q99) = percentile_triple(&run.all_q_errors());
        let (p50, p90, p99) = percentile_triple(&run.all_p_errors());
        println!(
            "{name:<12} e2e {:>10.3?}  Q-Error 50/90/99%: {q50:.2}/{q90:.2}/{q99:.2}  \
             P-Error 50/90/99%: {p50:.2}/{p90:.2}/{p99:.2}",
            run.e2e_total()
        );
    }
    println!("\nA worse P-Error distribution means slower plans — that is the");
    println!("paper's point: P-Error tracks end-to-end time, Q-Error may not.");
}
