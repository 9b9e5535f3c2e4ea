//! Ablation: bushy DP enumeration vs the classic left-deep-only search
//! space, under true cardinalities. Quantifies what exact DP buys the
//! engine on the STATS-CEB analog (cost-model units and wall clock).

use std::time::Instant;

use cardbench_engine::{
    exact_cardinality, execute_with, optimize_with, plan_cost, CardMap, CostModel, ExecScratch,
};
use cardbench_harness::Bench;
use cardbench_query::{connected_subsets, BoundQuery, SubPlanQuery};

fn main() {
    let _trace = cardbench_bench::init_tracing();
    let bench = Bench::build(cardbench_bench::config_from_env());
    let db = &bench.stats_db;
    let cost = CostModel::default();
    // One arena for every timed run, as the harness executes plans.
    let mut scratch = ExecScratch::new();
    let mut total_cost = [0.0f64; 2];
    let mut total_wall = [0.0f64; 2];
    let mut differing = 0usize;
    for wq in &bench.stats_wl.queries {
        let bound = BoundQuery::bind(&wq.query, db.catalog()).unwrap();
        let mut cards = CardMap::new();
        for mask in connected_subsets(&wq.query) {
            let sp = SubPlanQuery::project(&wq.query, mask);
            cards.insert(mask, exact_cardinality(db, &sp.query).unwrap());
        }
        let mut costs = [0.0f64; 2];
        for (i, left_deep) in [false, true].into_iter().enumerate() {
            let plan = optimize_with(&wq.query, &bound, db, &cards, &cost, left_deep);
            costs[i] = plan_cost(&plan, db, &bound, &cost, &|m| cards.rows(m));
            total_cost[i] += costs[i];
            // Warm then time.
            execute_with(&plan, &bound, db, &mut scratch);
            let t0 = Instant::now();
            execute_with(&plan, &bound, db, &mut scratch);
            total_wall[i] += t0.elapsed().as_secs_f64();
        }
        if (costs[0] - costs[1]).abs() > 1e-6 {
            differing += 1;
        }
    }
    println!(
        "bushy DP:   model cost {:>12.0}  wall {:>8.3}s",
        total_cost[0], total_wall[0]
    );
    println!(
        "left-deep:  model cost {:>12.0}  wall {:>8.3}s",
        total_cost[1], total_wall[1]
    );
    println!(
        "{differing}/{} queries get a strictly cheaper bushy plan; cost ratio {:.4}",
        bench.stats_wl.queries.len(),
        total_cost[1] / total_cost[0].max(1e-12)
    );
}
