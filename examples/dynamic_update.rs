//! The dynamic-data workflow (paper §6.3): train on the pre-2014 half of
//! STATS, bulk-insert the rest, update each data-driven model, and
//! compare update cost and post-update accuracy.
//!
//! Run with `cargo run --release --example dynamic_update`.

use std::time::Instant;

use cardbench::datagen::stats::{temporal_split, SPLIT_DAY};
use cardbench::datagen::{stats_catalog, StatsConfig};
use cardbench::engine::Database;
use cardbench::estimators::bayescard::BayesCard;
use cardbench::estimators::deepdb::DeepDb;
use cardbench::estimators::CardEst;
use cardbench::metrics::q_error;
use cardbench::query::{JoinEdge, JoinQuery, Predicate, Region, SubPlanQuery, TableMask};

fn main() {
    let cfg = StatsConfig {
        scale: 0.01,
        ..StatsConfig::default()
    };
    let full = stats_catalog(&cfg);
    let (stale, inserts) = temporal_split(&full, SPLIT_DAY);
    let inserted: usize = inserts.iter().map(|t| t.row_count()).sum();
    println!(
        "stale rows: {}, rows to insert: {inserted}",
        stale.total_rows()
    );

    // Train stale models.
    let stale_db = Database::new(stale);
    let mut bayes = BayesCard::fit(&stale_db, 24);
    let mut deep = DeepDb::fit(&stale_db, 24, 0);

    // Apply the inserts to the database, then to the models.
    let mut db = stale_db;
    db.append_inserts(&inserts).unwrap();

    let query = JoinQuery {
        tables: vec!["users".into(), "comments".into()],
        joins: vec![JoinEdge::new(0, "Id", 1, "UserId")],
        predicates: vec![Predicate::new(1, "Score", Region::ge(1))],
    };
    let sub = SubPlanQuery {
        mask: TableMask::full(2),
        query: query.clone(),
    };
    let truth = cardbench::engine::exact_cardinality(&db, &query).unwrap();
    println!("query: {}", cardbench::query::sql::to_sql(&query));
    println!("true cardinality on updated data: {truth}");

    for (name, est) in [
        ("BayesCard", &mut bayes as &mut dyn CardEst),
        ("DeepDB", &mut deep as &mut dyn CardEst),
    ] {
        let before = est.estimate(&db, &sub);
        let t0 = Instant::now();
        est.apply_inserts(&db, &inserts);
        let update_time = t0.elapsed();
        let after = est.estimate(&db, &sub);
        println!(
            "{name:<10} update {update_time:>10.3?}  stale est {before:>9.1} \
             (q-err {:>6.2}) → updated est {after:>9.1} (q-err {:>6.2})",
            q_error(before, truth),
            q_error(after, truth),
        );
    }
    println!("\nBayesCard's count-only update is fast and accuracy-preserving;");
    println!("parameter-only SPN updates drift — the paper's observation O10.");
}
