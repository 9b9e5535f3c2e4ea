//! Quickstart: generate a STATS-profile database, train a data-driven
//! estimator, and watch the injected cardinalities drive the optimizer.
//!
//! Run with `cargo run --release --example quickstart`.

use cardbench::datagen::{stats_catalog, StatsConfig};
use cardbench::engine::{execute, optimize, CardMap, CostModel, Database, TrueCardService};
use cardbench::estimators::bayescard::BayesCard;
use cardbench::estimators::CardEst;
use cardbench::metrics::{p_error, q_error};
use cardbench::query::{
    connected_subsets, BoundQuery, JoinEdge, JoinQuery, Predicate, Region, SubPlanQuery,
};

fn main() {
    // 1. A synthetic STATS-profile database (8 tables, Figure-1 joins).
    let db = Database::new(stats_catalog(&StatsConfig {
        scale: 0.01,
        ..StatsConfig::default()
    }));
    println!(
        "database: {} tables, {} rows total",
        db.catalog().table_count(),
        db.catalog().total_rows()
    );

    // 2. A three-table join query: posts of reputable users with comments.
    let query = JoinQuery {
        tables: vec!["users".into(), "posts".into(), "comments".into()],
        joins: vec![
            JoinEdge::new(0, "Id", 1, "OwnerUserId"),
            JoinEdge::new(1, "Id", 2, "PostId"),
        ],
        predicates: vec![
            Predicate::new(0, "Reputation", Region::ge(100)),
            Predicate::new(2, "Score", Region::ge(1)),
        ],
    };
    println!("query: {}", cardbench::query::sql::to_sql(&query));

    // 3. Train BayesCard (Chow-Liu BNs + fanout join estimation).
    let est = BayesCard::fit(&db, 24);
    println!("trained BayesCard ({} bytes)", est.model_size_bytes());

    // 4. Estimate every sub-plan, inject into the optimizer, execute.
    let bound = BoundQuery::bind(&query, db.catalog()).unwrap();
    let truth_svc = TrueCardService::new();
    let cost = CostModel::default();
    let mut est_cards = CardMap::new();
    let mut true_cards = CardMap::new();
    for mask in connected_subsets(&query) {
        let sp = SubPlanQuery::project(&query, mask);
        let e = est.estimate(&db, &sp);
        let t = truth_svc.cardinality(&db, &sp.query).unwrap();
        println!(
            "  sub-plan {:?}: est {:>10.1} true {:>10.0} (q-error {:.2})",
            sp.query.tables,
            e,
            t,
            q_error(e, t)
        );
        est_cards.insert(mask, e);
        true_cards.insert(mask, t);
    }
    let plan = optimize(&query, &bound, &db, &est_cards, &cost);
    let (rows, stats) = execute(&plan, &bound, &db);
    println!(
        "\nchosen plan:\n{}",
        plan.render(&query.tables, &|n| format!(
            "[est {:.0}]",
            est_cards.rows(n.mask())
        ))
    );
    println!(
        "result: {rows} rows ({} intermediate)",
        stats.intermediate_rows
    );
    println!(
        "P-Error: {:.3}",
        p_error(&db, &cost, &query, &bound, &est_cards, &true_cards)
    );
}
