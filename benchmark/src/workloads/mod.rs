//! The five workloads and what they share: the fixed dataset, the fixed
//! STATS-CEB analog, set-up timing, and the seed-driven op order.

pub mod ceb_e2e;
pub mod infer_zoo;
pub mod plan_search;
pub mod serve_mix;
pub mod update_churn;

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use cardbench_datagen::stats_catalog;
use cardbench_engine::{optimize_topo, CardMap, CostModel, Database, JoinTopology};
use cardbench_estimators::lw::TrainingSet;
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_harness::{build_estimator, BenchConfig};
use cardbench_query::{BoundQuery, JoinQuery, SubPlanQuery};
use cardbench_storage::Catalog;
use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};
use cardbench_workload::{stats_ceb, training_workload, Workload as Queries};

use crate::trace::{Profile, Tracer};

/// Seed of the dataset, of the 146-query STATS-CEB analog, of model
/// training, and of the join shapes and literals of `plan_search`. They
/// are the benchmark's fixed artefacts, as the STATS dump and the
/// hand-picked STATS-CEB queries are in the paper; `--seed` drives the
/// order in which a workload runs its ops. New queries per seed would
/// move the heavy tail of the op list from run to run by far more than
/// any bound here (ten seeds moved `update_churn`'s p95 by 0.20 while
/// its p50 stayed within 0.05).
pub const DATA_SEED: u64 = 7;

/// What one whole pass over the op list produced.
pub struct Pass {
    /// Wall time of the pass, first op start to last op end.
    pub wall: Duration,
    /// Wall time per op, by position in the op list; `None` for a failed
    /// or refused op, which has no latency.
    pub latency: Vec<Option<Duration>>,
    /// Output-check failures, one line each; an op named here is also
    /// `None` above.
    pub errors: Vec<String>,
}

impl Pass {
    pub fn new(ops: usize) -> Pass {
        Pass {
            wall: Duration::ZERO,
            latency: Vec::with_capacity(ops),
            errors: Vec::new(),
        }
    }

    /// Records op `op`: its latency if `check` passed, a failure if not.
    pub fn record(&mut self, op: usize, took: Duration, check: Result<(), String>) {
        debug_assert_eq!(op, self.latency.len());
        match check {
            Ok(()) => self.latency.push(Some(took)),
            Err(why) => {
                self.latency.push(None);
                self.errors.push(format!("op {op}: {why}"));
            }
        }
    }
}

/// Per-layer values by metric name; names left out report 0.
#[derive(Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }

    /// Removes and returns the value of `name`, 0 if it was never put.
    pub fn take(&mut self, name: &str) -> f64 {
        self.0.remove(name).unwrap_or(0.0)
    }

    /// Names put and not taken.
    pub fn names(&self) -> Vec<&str> {
        self.0.keys().map(String::as_str).collect()
    }
}

/// Share of `ops` ops that found their topology cached, from two
/// `(hits, misses)` snapshots of the topology memo.
pub fn topology_cached_share(before: (u64, u64), after: (u64, u64), ops: usize) -> f64 {
    1.0 - (after.1 - before.1) as f64 / ops as f64
}

/// `Σ hits ÷ Σ (hits + misses)` between two counter snapshots; 0 when
/// the cache was not touched.
pub fn hit_ratio(before: (u64, u64), after: (u64, u64)) -> f64 {
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// `num ÷ den`, or 0 for an untouched layer.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One workload: a deterministic op list over state built in set-up.
pub trait Workload: Sized {
    const NAME: &'static str;
    /// Load threads of a pass.
    const THREADS: usize;
    /// N: ops in the list, whatever the seed.
    const OPS: usize;
    /// P: measured passes of an untraced run of `run::RUN_SECONDS`, a
    /// multiple of `run::SETUP_REPS`, sized so that they take about that
    /// long on the reference host. To shorten a run, lower P, never N.
    const PASSES: usize;

    /// Builds everything the passes need, single-threaded. Timed as a
    /// whole by the caller; `clock` collects the per-layer shares. Spans
    /// are opened on `tracer`, which records only while it is on.
    fn setup(seed: u64, clock: &mut SetupClock, tracer: &'static Tracer) -> Self;

    /// Number of ops in the list: [`Workload::OPS`].
    fn ops(&self) -> usize;

    /// Digest of the op list: equal for equal seeds.
    fn digest(&self) -> u64;

    /// Runs the whole op list once. With `full_checks` the pass also
    /// makes the output checks that are too slow to repeat every pass
    /// (it is then the discarded warm-up pass).
    fn pass(&mut self, full_checks: bool) -> Pass;

    /// The traced run's extras, after its passes: times direct calls
    /// into layers the coarse calls hide, reads the layers' counters,
    /// and reduces `profile` (the traced passes) to per-layer metrics.
    /// Called with the tracer on.
    fn layers(&mut self, profile: &Profile, out: &mut Layers);
}

/// Wall time per layer during one set-up, for the set-up layer metrics.
#[derive(Default, Clone, Copy)]
pub struct SetupClock {
    pub datagen_s: f64,
    pub datagen_rows: f64,
    pub workload_s: f64,
    pub workload_queries: f64,
    pub train_s: f64,
    pub sketch_fit_s: f64,
    pub sketch_fit_rows: f64,
    pub serve_start_s: f64,
}

impl SetupClock {
    pub fn layers(&self, out: &mut Layers) {
        out.put(
            "datagen.stats_rows_per_s",
            ratio(self.datagen_rows, self.datagen_s),
        );
        out.put(
            "workload.gen_queries_per_s",
            ratio(self.workload_queries, self.workload_s),
        );
        out.put("estimators.train_s", self.train_s);
        out.put(
            "sketch.fit_rows_per_s",
            ratio(self.sketch_fit_rows, self.sketch_fit_s),
        );
        out.put("serve.start_ms", self.serve_start_s * 1e3);
    }
}

/// Times `f` and adds the seconds to `slot`.
pub fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let out = f();
    *slot += t0.elapsed().as_secs_f64();
    out
}

/// The benchmark configuration every workload starts from:
/// `BenchConfig::standard` (STATS scale 0.02, 146 queries), with two
/// changes that leave inference cost alone. MSCN trains 8 epochs, not
/// 40 — its architecture, hence its forward pass, is unchanged, and
/// five set-up repetitions of a 6 s training would not fit the time cap.
/// The sketch builds on one shard, because set-up is single-threaded.
pub fn config() -> BenchConfig {
    let mut cfg = BenchConfig::standard(DATA_SEED);
    cfg.settings.mscn.epochs = 8;
    cfg.settings.sketch.shards = 1;
    cfg
}

/// Generates the STATS-profile catalog.
pub fn stats_data(cfg: &BenchConfig, clock: &mut SetupClock) -> Catalog {
    let catalog = timed(&mut clock.datagen_s, || stats_catalog(&cfg.stats));
    clock.datagen_rows += catalog.total_rows() as f64;
    catalog
}

/// Generates the 146-query STATS-CEB analog (with its true result
/// cardinalities) on `db`.
pub fn ceb_queries(db: &Database, cfg: &BenchConfig, clock: &mut SetupClock) -> Queries {
    let wl = timed(&mut clock.workload_s, || stats_ceb(db, &cfg.stats_workload));
    clock.workload_queries += wl.queries.len() as f64;
    wl
}

/// Generates the training queries of the query-driven estimators.
pub fn training_set(db: &Database, cfg: &BenchConfig, clock: &mut SetupClock) -> TrainingSet {
    let (queries, cards) = timed(&mut clock.workload_s, || {
        training_workload(
            db,
            cfg.training_queries,
            cfg.stats_workload.max_tables,
            cfg.settings.seed ^ 0x7a,
        )
    });
    clock.workload_queries += queries.len() as f64;
    TrainingSet { queries, cards }
}

/// Trains one estimator.
pub fn train(
    kind: EstimatorKind,
    db: &Database,
    set: &TrainingSet,
    cfg: &BenchConfig,
    clock: &mut SetupClock,
) -> Box<dyn CardEst> {
    timed(&mut clock.train_s, || {
        build_estimator(kind, db, set, &cfg.settings).est
    })
}

/// Binds `query` and projects its whole connected sub-plan space, in
/// `connected_subsets` order (the order every layer agrees on).
pub fn subplans(db: &Database, query: &JoinQuery) -> (BoundQuery, Vec<SubPlanQuery>) {
    let bound = BoundQuery::bind(query, db.catalog()).expect("benchmark queries bind");
    let topo = db.topology(query, &bound);
    let subs = topo
        .masks()
        .iter()
        .map(|&mask| SubPlanQuery::project(query, mask))
        .collect();
    (bound, subs)
}

/// Span of the two plan searches `metrics::p_error` makes inside, timed
/// by repeating them on the same inputs (the call itself cannot be
/// opened from outside).
pub const OPTIMIZE_IN_P_ERROR: &str = "engine.optimize_topo_in_p_error";

/// Repeats the two dense plan searches of one `p_error` call: over the
/// estimated and over the true cardinalities.
pub fn replay_p_error_searches(
    tracer: &Tracer,
    db: &Database,
    cost: &CostModel,
    topo: &JoinTopology,
    bound: &BoundQuery,
    cards: [&CardMap; 2],
) {
    for cards in cards {
        let _s = tracer.span(OPTIMIZE_IN_P_ERROR);
        let dense = cards.dense_view(topo);
        std::hint::black_box(optimize_topo(topo, bound, db, &dense, cost, false));
    }
}

/// Fisher-Yates shuffle driven by `seed`.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `floats` are equal bit for bit.
pub fn bit_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}
