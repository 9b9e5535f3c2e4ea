//! `plan_search`: plan search and nothing else, on one thread. 64 join
//! shapes of 6–8 tables, each with 8 literal variants; the PostgreSQL
//! estimates and the true cardinalities of every sub-plan are computed
//! in set-up. An op binds the query, fetches its topology, takes the
//! dense view of the estimates, runs `optimize_topo` and scores the
//! plan with `metrics::p_error`. Nothing is executed and no estimator is
//! called. Each pass starts with `Database::clear_shared_caches`, so the
//! first op of each shape — 1 in 8 — pays the topology build: the p95
//! sits in that class and the p50 in the cached class. Chosen so a
//! change to plan search (ROADMAP item 1) has a workload where executor
//! and estimators do nothing.

use std::collections::HashSet;
use std::time::Instant;

use cardbench_engine::{
    optimize_reference, optimize_topo, CardMap, CostModel, Database, JoinTopology, TrueCardService,
};
use cardbench_estimators::postgres::PostgresEst;
use cardbench_estimators::CardEst;
use cardbench_metrics::p_error;
use cardbench_query::{BoundQuery, JoinQuery, Predicate, Region};
use cardbench_storage::TableId;
use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};
use cardbench_workload::{enumerate_templates, JoinTemplate};

use super::{
    config, ratio, replay_p_error_searches, shuffle, stats_data, subplans, timed,
    topology_cached_share, Layers, Pass, SetupClock, Workload, DATA_SEED, OPTIMIZE_IN_P_ERROR,
};
use crate::reduce::Digest;
use crate::trace::{Profile, Tracer, OP};

/// Shapes per table count (6, 7, 8 tables): 64 in all.
const SHAPES: [(usize, usize); 3] = [(6, 21), (7, 21), (8, 22)];
const VARIANTS: usize = 8;

const BIND: &str = "query.bind";
const TOPOLOGY_HIT: &str = "engine.topology";
const TOPOLOGY_BUILD: &str = "engine.topology_build";
const DENSE_VIEW: &str = "engine.dense_view";
const OPTIMIZE: &str = "engine.optimize_topo";
const P_ERROR: &str = "metrics.p_error";

struct PlanOp {
    shape: usize,
    query: JoinQuery,
    est_cards: CardMap,
    true_cards: CardMap,
    /// First op of its shape in the list: the one that finds no cached
    /// topology after the caches are cleared.
    builds_topology: bool,
}

pub struct PlanSearch {
    tracer: &'static Tracer,
    db: Database,
    cost: CostModel,
    ops: Vec<PlanOp>,
}

/// Picks the join shapes. Templates that differ in join columns only
/// share one topology, so one template is kept per topology key. Within
/// a table count the templates are then sorted by the size of their
/// plan-search space and cut into as many strata as shapes are wanted,
/// and one template is drawn per stratum: the shapes span the whole
/// range of search-space sizes, small and large.
fn pick_shapes(db: &Database, rng: &mut StdRng) -> Vec<JoinTemplate> {
    let templates = enumerate_templates(db, 8);
    let mut keys = HashSet::new();
    let mut picked = Vec::new();
    for (tables, want) in SHAPES {
        let mut sized: Vec<(usize, &JoinTemplate)> = templates
            .iter()
            .filter(|t| t.table_count() == tables)
            .filter_map(|t| {
                let query = t.to_query();
                let bound = BoundQuery::bind(&query, db.catalog()).expect("templates bind");
                keys.insert(JoinTopology::structural_key(&query, &bound))
                    .then(|| (db.topology(&query, &bound).partition_count(), t))
            })
            .collect();
        // Stable: `enumerate_templates` orders equal sizes by key.
        sized.sort_by_key(|&(partitions, _)| partitions);
        for stratum in 0..want {
            let lo = stratum * sized.len() / want;
            let hi = (stratum + 1) * sized.len() / want;
            picked.push(sized[rng.gen_range(lo..hi)].1.clone());
        }
    }
    db.clear_shared_caches();
    picked
}

/// One to three filter predicates on `query`, each anchored at the
/// value a random row holds in a filterable column.
fn add_literals(db: &Database, query: &mut JoinQuery, rng: &mut StdRng) {
    for _ in 0..rng.gen_range(1..=3usize) {
        let pos = rng.gen_range(0..query.tables.len());
        let id: TableId = db
            .catalog()
            .table_id(&query.tables[pos])
            .expect("template tables exist");
        let table = db.catalog().table(id);
        let columns = table.schema().filterable_columns();
        let column = columns[rng.gen_range(0..columns.len())];
        let Some(value) = table
            .column(column)
            .get(rng.gen_range(0..table.row_count()))
        else {
            continue;
        };
        let name = table.schema().columns[column].name.clone();
        let already = query
            .predicates
            .iter()
            .any(|p| p.table == pos && p.column == name);
        if !already {
            let region = if rng.gen_bool(0.5) {
                Region::ge(value)
            } else {
                Region::le(value)
            };
            query.predicates.push(Predicate::new(pos, name, region));
        }
    }
}

impl Workload for PlanSearch {
    const NAME: &'static str = "plan_search";
    const THREADS: usize = 1;
    const OPS: usize = 512;
    const PASSES: usize = 1250;

    fn setup(seed: u64, clock: &mut SetupClock, tracer: &'static Tracer) -> PlanSearch {
        let cfg = config();
        let db = Database::new(stats_data(&cfg, clock));
        // Shapes and literals are fixed artefacts like the dataset: every
        // seed searches the same 512 queries, in its own order.
        let mut rng = StdRng::seed_from_u64(DATA_SEED);
        let shapes = timed(&mut clock.workload_s, || pick_shapes(&db, &mut rng));
        let mut queries: Vec<(usize, JoinQuery)> = Vec::with_capacity(shapes.len() * VARIANTS);
        timed(&mut clock.workload_s, || {
            for (shape, template) in shapes.iter().enumerate() {
                for _ in 0..VARIANTS {
                    let mut query = template.to_query();
                    add_literals(&db, &mut query, &mut rng);
                    queries.push((shape, query));
                }
            }
        });
        clock.workload_queries += queries.len() as f64;
        shuffle(&mut queries, seed);

        let postgres = timed(&mut clock.train_s, || PostgresEst::fit(&db));
        let truth = TrueCardService::new();
        let mut seen = vec![false; shapes.len()];
        let ops = queries
            .into_iter()
            .map(|(shape, query)| {
                let (bound, subs) = subplans(&db, &query);
                let topo = db.topology(&query, &bound);
                let truths = truth
                    .cardinalities_for_subplans(&db, &query, &subs)
                    .expect("generated queries have truths");
                let ests = postgres.estimate_batch(&db, &subs);
                let (mut est_cards, mut true_cards) = (CardMap::new(), CardMap::new());
                for (i, (&(mask, t), est)) in truths.iter().zip(ests).enumerate() {
                    est_cards.insert_bounded(mask, est, topo.cross_bound(i));
                    true_cards.insert(mask, t);
                }
                PlanOp {
                    shape,
                    query,
                    est_cards,
                    true_cards,
                    builds_topology: !std::mem::replace(&mut seen[shape], true),
                }
            })
            .collect();
        PlanSearch {
            tracer,
            db,
            cost: CostModel::default(),
            ops,
        }
    }

    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for op in &self.ops {
            d.word(op.shape as u64);
            d.word(op.query.canonical_hash());
        }
        d.0
    }

    fn pass(&mut self, full_checks: bool) -> Pass {
        let (tr, db, cost) = (self.tracer, &self.db, &self.cost);
        let mut pass = Pass::new(self.ops.len());
        db.clear_shared_caches();
        let start = Instant::now();
        for (i, op) in self.ops.iter().enumerate() {
            let t0 = Instant::now();
            let root = tr.op(OP, i as u32);
            let bound = {
                let _s = tr.span(BIND);
                BoundQuery::bind(&op.query, db.catalog()).expect("checked in set-up")
            };
            let topo = {
                let _s = tr.span(if op.builds_topology {
                    TOPOLOGY_BUILD
                } else {
                    TOPOLOGY_HIT
                });
                db.topology(&op.query, &bound)
            };
            let dense = {
                let _s = tr.span(DENSE_VIEW);
                op.est_cards.dense_view(&topo)
            };
            let (plan_cost, plan) = {
                let _s = tr.span(OPTIMIZE);
                optimize_topo(&topo, &bound, db, &dense, cost, false)
            };
            let pe = {
                let _s = tr.span(P_ERROR);
                p_error(db, cost, &op.query, &bound, &op.est_cards, &op.true_cards)
            };
            drop(root);
            let took = t0.elapsed();
            std::hint::black_box(&plan);
            let mut check = if pe.is_finite() && pe > 0.0 {
                Ok(())
            } else {
                Err(format!("P-Error {pe}"))
            };
            if full_checks && check.is_ok() {
                let (reference, _) =
                    optimize_reference(&op.query, &bound, db, &op.est_cards, cost, false);
                if reference.to_bits() != plan_cost.to_bits() {
                    check = Err(format!(
                        "optimize_topo cost {plan_cost}, optimize_reference {reference}"
                    ));
                }
            }
            pass.record(i, took, check);
        }
        pass.wall = start.elapsed();
        pass
    }

    fn layers(&mut self, profile: &Profile, out: &mut Layers) {
        let tr = self.tracer;
        // The two plan searches inside each `p_error` call, repeated on
        // the same inputs, three passes.
        let mut inside = Profile::default();
        for _ in 0..3 {
            for (i, op) in self.ops.iter().enumerate() {
                let bound = BoundQuery::bind(&op.query, self.db.catalog()).expect("binds");
                let topo = self.db.topology(&op.query, &bound);
                let _op = tr.op(OP, i as u32);
                replay_p_error_searches(
                    tr,
                    &self.db,
                    &self.cost,
                    &topo,
                    &bound,
                    [&op.est_cards, &op.true_cards],
                );
            }
            inside.add_pass(&tr.drain());
        }

        tr.set_on(false);
        let before = self.db.topology_cache_stats();
        self.pass(false);
        let after = self.db.topology_cache_stats();
        tr.set_on(true);

        let root = profile.busy_s(OP);
        out.put("query.bind_project_us_p50", profile.p50_us(BIND));
        out.put(
            "engine.topology_build_us_p50",
            profile.p50_us(TOPOLOGY_BUILD),
        );
        out.put(
            "engine.topology_hit_ratio",
            topology_cached_share(before, after, self.ops.len()),
        );
        out.put("engine.optimize_us_p50", profile.p50_us(OPTIMIZE));
        out.put(
            "engine.optimize_share",
            ratio(
                profile.own_s(OPTIMIZE) + inside.own_s(OPTIMIZE_IN_P_ERROR),
                root,
            ),
        );
        out.put(
            "engine.topology_share",
            ratio(
                profile.own_s(TOPOLOGY_BUILD) + profile.own_s(TOPOLOGY_HIT),
                root,
            ),
        );
        out.put("metrics.p_error_us_p50", profile.p50_us(P_ERROR));
    }
}
