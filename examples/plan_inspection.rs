//! Plan inspection: how estimation quality changes the physical plan.
//!
//! Runs the same query with the TrueCard oracle and with a deliberately
//! coarse estimator, then prints both annotated plans and their measured
//! execution times — the causal chain behind the paper's end-to-end
//! results.
//!
//! Run with `cargo run --release --example plan_inspection`.

use std::time::Instant;

use cardbench::datagen::{stats_catalog, StatsConfig};
use cardbench::engine::{execute, optimize, CardMap, CostModel, Database, TrueCardService};
use cardbench::estimators::truecard::TrueCardEst;
use cardbench::estimators::unisample::UniSample;
use cardbench::estimators::CardEst;
use cardbench::query::{
    connected_subsets, BoundQuery, JoinEdge, JoinQuery, Predicate, Region, SubPlanQuery,
};

fn run(name: &str, est: &dyn CardEst, db: &Database, query: &JoinQuery) {
    let bound = BoundQuery::bind(query, db.catalog()).unwrap();
    let cost = CostModel::default();
    let mut cards = CardMap::new();
    for mask in connected_subsets(query) {
        let sp = SubPlanQuery::project(query, mask);
        cards.insert(mask, est.estimate(db, &sp));
    }
    let plan = optimize(query, &bound, db, &cards, &cost);
    let t0 = Instant::now();
    let (rows, stats) = execute(&plan, &bound, db);
    println!(
        "== {name}: {rows} rows in {:?} ({} intermediate rows)",
        t0.elapsed(),
        stats.intermediate_rows
    );
    print!(
        "{}",
        plan.render(&query.tables, &|n| format!(
            "[est {:.0}]",
            cards.rows(n.mask())
        ))
    );
    println!();
}

fn main() {
    let db = Database::new(stats_catalog(&StatsConfig {
        scale: 0.02,
        ..StatsConfig::default()
    }));
    // Chain query with a selective user filter: order matters.
    let query = JoinQuery {
        tables: vec!["users".into(), "posts".into(), "votes".into()],
        joins: vec![
            JoinEdge::new(0, "Id", 1, "OwnerUserId"),
            JoinEdge::new(1, "Id", 2, "PostId"),
        ],
        predicates: vec![Predicate::new(0, "Reputation", Region::ge(500))],
    };
    println!("query: {}\n", cardbench::query::sql::to_sql(&query));

    let oracle = TrueCardEst::new();
    run("TrueCard (optimal)", &oracle, &db, &query);

    // A 40-row sample per table: joins estimated by uniformity.
    let coarse = UniSample::fit(&db, 40, 1);
    run("UniSample-40 (coarse)", &coarse, &db, &query);

    // Both plans return the same count; only speed differs.
    let _ = TrueCardService::new();
}
