//! The auxiliary experiments behind `cardbench report`: studies beyond
//! the paper's tables that DESIGN.md and EXPERIMENTS.md quote.

use std::time::{Duration, Instant};

use cardbench_datagen::stats::{temporal_split, DAYS_MAX};
use cardbench_datagen::{stats_catalog, StatsConfig};
use cardbench_engine::{
    exact_cardinality, execute_with, optimize_with, plan_cost, CardMap, CostModel, Database,
    ExecScratch, JoinAlgo, PhysicalPlan, ScanMethod, TrueCardService,
};
use cardbench_estimators::bayescard::BayesCard;
use cardbench_estimators::calibrate::PErrorCalibrated;
use cardbench_estimators::deepdb::DeepDb;
use cardbench_estimators::fanout::{exact_fanout_estimator, exact_selectivity, uniform_join_card};
use cardbench_estimators::flat::Flat;
use cardbench_estimators::lw::{LwNn, TrainingSet};
use cardbench_estimators::mscn::Mscn;
use cardbench_estimators::neurocard::{NeuroCardConfig, NeuroCardE};
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_harness::update_exp::UPDATABLE;
use cardbench_harness::{build_estimator, run_workload, MethodRun, QueryRun};
use cardbench_metrics::{percentile, percentile_triple, q_error, spearman};
use cardbench_ml::autoreg::ArConfig;
use cardbench_query::{
    connected_subsets, BoundQuery, JoinEdge, JoinQuery, Region, SubPlanQuery, TableMask,
};
use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableId, TableSchema};
use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};
use cardbench_workload::{stats_ceb, Workload, WorkloadConfig};

use crate::report::Eval;

/// Median sub-plan Q-Error of a closure-estimator over the workload.
fn median_q_error(
    db: &Database,
    wl: &Workload,
    mut estimate: impl FnMut(&SubPlanQuery) -> f64,
) -> f64 {
    let mut errs = Vec::new();
    for wq in &wl.queries {
        for mask in connected_subsets(&wq.query) {
            let sp = SubPlanQuery::project(&wq.query, mask);
            let t = exact_cardinality(db, &sp.query).unwrap();
            errs.push(q_error(estimate(&sp), t));
        }
    }
    percentile(&errs, 0.5)
}

/// Ablation studies for the design choices DESIGN.md calls out, on a
/// fixed small correlated STATS instance:
///
/// - A1: FSPN multi-leaves on/off (FLAT vs DeepDB structure) — accuracy
///   and model size on correlated data.
/// - A2: fanout join estimation vs join-uniformity, holding the
///   per-table model exact — isolates what the fanout framework buys.
/// - A3: NeuroCard FOJ sample-size sweep — how much of its error is
///   sample starvation (paper O3).
/// - A4: discretization budget sweep for BayesCard.
pub fn ablation(_: &Eval) -> Result<(), String> {
    let cfg = StatsConfig {
        scale: 0.01,
        coupling: 0.8,
        ..StatsConfig::default()
    };
    let db = Database::new(stats_catalog(&cfg));
    let wl = stats_ceb(
        &db,
        &WorkloadConfig {
            templates: 30,
            queries: 40,
            ..WorkloadConfig::stats_ceb(17)
        },
    );
    println!(
        "Ablations on STATS scale {} ({} queries, {} rows)\n",
        cfg.scale,
        wl.queries.len(),
        db.catalog().total_rows()
    );

    // A1: multi-leaves.
    let deep = DeepDb::fit(&db, 24, 0);
    let flat = Flat::fit(&db, 24, 0);
    let q_deep = median_q_error(&db, &wl, |sp| deep.estimate(&db, sp));
    let q_flat = median_q_error(&db, &wl, |sp| flat.estimate(&db, sp));
    println!(
        "A1  SPN plain (DeepDB): median q-error {q_deep:.3}, {} nodes, {}B",
        deep.node_count(),
        deep.model_size_bytes()
    );
    println!(
        "A1  SPN+multileaf (FLAT): median q-error {q_flat:.3}, {} nodes, {}B\n",
        flat.node_count(),
        flat.model_size_bytes()
    );

    // A2: fanout framework vs join uniformity with exact per-table info.
    let fanout = exact_fanout_estimator(&db, 24);
    let q_fanout = median_q_error(&db, &wl, |sp| fanout.estimate(&db, sp));
    let q_uniform = median_q_error(&db, &wl, |sp| {
        let bound = BoundQuery::bind(&sp.query, db.catalog()).unwrap();
        let sels: Vec<f64> = bound
            .tables
            .iter()
            .map(|bt| {
                let preds: Vec<(usize, Region)> = bt
                    .predicates
                    .iter()
                    .map(|p| (p.column, p.region.clone()))
                    .collect();
                exact_selectivity(&db, bt.id, &preds)
            })
            .collect();
        uniform_join_card(&db, &bound, &sels)
    });
    println!("A2  exact sel + join uniformity: median q-error {q_uniform:.3}");
    println!("A2  exact sel + fanout framework: median q-error {q_fanout:.3}\n");

    // A3: NeuroCard sample-size sweep.
    for sample_rows in [500usize, 2000, 8000] {
        let nc = NeuroCardE::fit(
            &db,
            &NeuroCardConfig {
                sample_rows,
                max_bins: 16,
                ar: ArConfig {
                    epochs: 2,
                    samples: 150,
                    ..ArConfig::default()
                },
                seed: 3,
            },
        );
        let q = median_q_error(&db, &wl, |sp| nc.estimate(&db, sp));
        println!("A3  NeuroCard^E FOJ sample {sample_rows:>5}: median q-error {q:.3}");
    }
    println!();

    // A4: BayesCard bin budget.
    for bins in [8usize, 24, 64] {
        let bc = BayesCard::fit(&db, bins);
        let q = median_q_error(&db, &wl, |sp| bc.estimate(&db, sp));
        println!(
            "A4  BayesCard bins {bins:>3}: median q-error {q:.3}, size {}B",
            bc.model_size_bytes()
        );
    }
    Ok(())
}

/// Two tables joined on `k` with `keys` distinct values.
fn two_table_db(rows_a: usize, rows_b: usize, keys: i64) -> Database {
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

/// Cost-model ↔ executor alignment check: measures the wall time of
/// every join algorithm across input sizes and reports the rank
/// correlation with the cost model's predictions. A healthy engine keeps
/// this high — it is the assumption behind the paper's use of plan cost
/// (PPC) as a proxy for execution time in P-Error.
pub fn cost_alignment(_: &Eval) -> Result<(), String> {
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
            let db = two_table_db(ra, rb, keys);
            let q = JoinQuery {
                tables: vec!["a".into(), "b".into()],
                joins: vec![JoinEdge::new(0, "k", 1, "k")],
                predicates: vec![],
            };
            let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
            let scan = |t: usize, rows: usize| PhysicalPlan::Scan {
                table_pos: t,
                method: ScanMethod::Seq,
                mask: TableMask::single(t),
                est_rows: rows as f64,
            };
            let plan = PhysicalPlan::Join {
                algo,
                left: Box::new(scan(0, ra)),
                right: Box::new(scan(1, rb)),
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
    Ok(())
}

/// True cardinalities perturbed by log-normal noise of parameter
/// `sigma` (in log2 space): `est = true · 2^(sigma · N(0,1))`.
struct NoisyOracle {
    truth: TrueCardService,
    sigma: f64,
    seed: u64,
}

impl CardEst for NoisyOracle {
    fn name(&self) -> &'static str {
        "NoisyOracle"
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        let t = self.truth.cardinality(db, &sub.query).unwrap_or(1.0);
        // Per-call RNG keyed by the sub-plan, so estimates are stable no
        // matter which thread (or in which order) they are computed.
        let mut rng = StdRng::seed_from_u64(self.seed ^ sub.query.canonical_hash());
        // Box-Muller normal sample.
        let u1: f64 = rng.gen::<f64>().max(1e-12);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        t * 2.0f64.powf(self.sigma * z)
    }
}

/// A run that only carries its queries (P-Error and end-to-end time).
fn untrained(kind: EstimatorKind, queries: Vec<QueryRun>) -> MethodRun {
    MethodRun {
        kind,
        train_time: Duration::ZERO,
        model_size: 0,
        queries,
    }
}

/// How much estimation accuracy does the optimizer actually need?
/// Injects multiplicative log-normal noise around the *true*
/// cardinalities at increasing magnitudes and reports the resulting
/// P-Error distribution and end-to-end time: the estimation-error →
/// plan-quality transfer function of the engine, the mechanism behind
/// the paper's "estimation accuracy does not directly equal query plan
/// quality".
pub fn noise_sensitivity(e: &Eval) -> Result<(), String> {
    let bench = e.bench();
    let truth = TrueCardService::new();
    let cost = CostModel::default();
    println!(
        "{:<8} {:>9} {:>9} {:>9} {:>12}  (median Q-Error implied: 2^(0.67·sigma))",
        "sigma", "P50%", "P90%", "P99%", "E2E"
    );
    for sigma in [0.0, 0.5, 1.0, 2.0, 4.0, 8.0] {
        let est = NoisyOracle {
            truth: TrueCardService::new(),
            sigma,
            seed: 99,
        };
        let queries = run_workload(&bench.stats_db, &bench.stats_wl, &est, &truth, &cost);
        let run = untrained(EstimatorKind::TrueCard, queries);
        let (p50, p90, p99) = percentile_triple(&run.all_p_errors());
        println!(
            "{sigma:<8} {p50:>9.3} {p90:>9.3} {p99:>9.3} {:>12.3?}",
            run.e2e_total()
        );
    }
    println!("\nP-Error and end-to-end time degrade smoothly with noise — but");
    println!("note how much noise the plan survives before degrading: small");
    println!("Q-Errors are free, large ones are not (paper O5/O12).");
    Ok(())
}

/// Bushy DP enumeration vs the classic left-deep-only search space,
/// under true cardinalities: what exact DP buys the engine on the
/// STATS-CEB analog (cost-model units and wall clock).
pub fn optimizer_shapes(e: &Eval) -> Result<(), String> {
    let bench = e.bench();
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
    Ok(())
}

/// RD3 demo: optimizing an estimator toward P-Error (the paper's
/// proposed research direction) instead of Q-Error. Wraps MSCN in the
/// `PErrorCalibrated` adapter, calibrated on a held-out validation slice
/// of the training workload, and compares P-Error and end-to-end time
/// before/after on STATS-CEB.
pub fn rd3_calibration(e: &Eval) -> Result<(), String> {
    let bench = e.bench();
    let db = &bench.stats_db;
    let cost = CostModel::default();
    let truth = TrueCardService::new();
    let summarize = |name: &str, queries: Vec<QueryRun>| {
        let run = untrained(EstimatorKind::Mscn, queries);
        let (p50, p90, p99) = percentile_triple(&run.all_p_errors());
        println!(
            "{name:<22} e2e {:>10.3?}  P-Error 50/90/99%: {p50:.3}/{p90:.3}/{p99:.3}",
            run.e2e_total()
        );
    };

    let raw = Mscn::fit(db, &bench.stats_train, &bench.config.settings.mscn);
    summarize(
        "MSCN (raw)",
        run_workload(db, &bench.stats_wl, &raw, &truth, &cost),
    );

    // Calibrate on a validation slice of the *training* workload — the
    // benchmark queries stay unseen.
    let validation: Vec<_> = bench
        .stats_train
        .queries
        .iter()
        .filter(|q| q.table_count() >= 2)
        .take(40)
        .cloned()
        .collect();
    let calibrated = PErrorCalibrated::calibrate(raw, db, &validation, &truth, &cost);
    println!("learned per-join-count factors: {:?}", calibrated.factors());
    summarize(
        "MSCN (P-calibrated)",
        run_workload(db, &bench.stats_wl, &calibrated, &truth, &cost),
    );
    Ok(())
}

/// Update-latency scaling: how each updatable estimator's refresh cost
/// grows with the insert batch size (extends paper Table 6 with the
/// batch-size axis that matters for OLTP deployments).
pub fn update_scaling(e: &Eval) -> Result<(), String> {
    let bench = e.bench();
    let settings = &e.cfg.settings;
    let empty = TrainingSet::default();
    // Include one query-driven method to quantify O9: its "update" must
    // re-execute the whole training workload.
    let methods: Vec<EstimatorKind> = UPDATABLE.into_iter().chain([EstimatorKind::Mscn]).collect();
    println!(
        "{:<14} {:>10} {:>12} {:>12}",
        "method", "batch rows", "update", "per krow"
    );
    // Cut at increasing dates: bigger cutoff ⇒ bigger stale part, smaller
    // batch; sweep the insert batch from ~10% to ~60% of the data.
    for cutoff_frac in [0.9, 0.7, 0.4] {
        let cutoff = (DAYS_MAX as f64 * cutoff_frac) as i64;
        let full = stats_catalog(&e.cfg.stats);
        let (stale, inserts) = temporal_split(&full, cutoff);
        let batch: usize = inserts.iter().map(|t| t.row_count()).sum();
        for &kind in &methods {
            let train = if kind == EstimatorKind::Mscn {
                &bench.stats_train
            } else {
                &empty
            };
            let mut db = Database::new(stale.clone());
            let mut built = build_estimator(kind, &db, train, settings);
            for (t, d) in inserts.iter().enumerate() {
                db.catalog_mut()
                    .table_mut(TableId(t))
                    .append_rows(d)
                    .expect("aligned schemas");
            }
            db.refresh();
            let t0 = Instant::now();
            built.est.apply_inserts(&db, &inserts);
            let dt = t0.elapsed();
            println!(
                "{:<14} {batch:>10} {:>12.3?} {:>12.3?}",
                kind.name(),
                dt,
                dt / (batch as u32 / 1000).max(1)
            );
        }
        println!();
    }
    Ok(())
}

/// Q-Error 50/90/99% of `est` on whole queries with known cardinalities.
fn q_errors_on(
    est: &dyn CardEst,
    db: &Database,
    queries: &[JoinQuery],
    cards: &[f64],
) -> (f64, f64, f64) {
    let errs: Vec<f64> = queries
        .iter()
        .zip(cards)
        .map(|(q, &t)| {
            let sub = SubPlanQuery {
                mask: TableMask::full(q.table_count()),
                query: q.clone(),
            };
            q_error(est.estimate(db, &sub), t)
        })
        .collect();
    percentile_triple(&errs)
}

/// The workload-shift experiment behind the paper's query-driven
/// findings (O1/O9): a query-driven model evaluated on queries drawn
/// from its own training distribution vs on the hand-shaped benchmark
/// workload it has never seen.
pub fn workload_shift(e: &Eval) -> Result<(), String> {
    let bench = e.bench();
    let db = &bench.stats_db;

    // Split the random training workload: first 80% to train, last 20%
    // held out (same distribution).
    let n = bench.stats_train.queries.len();
    let split = n * 4 / 5;
    let train = TrainingSet {
        queries: bench.stats_train.queries[..split].to_vec(),
        cards: bench.stats_train.cards[..split].to_vec(),
    };
    let heldout_q = &bench.stats_train.queries[split..];
    let heldout_c = &bench.stats_train.cards[split..];

    // The benchmark workload (different distribution: hand-shaped
    // templates, coverage predicates, non-empty results).
    let bench_q: Vec<JoinQuery> = bench
        .stats_wl
        .queries
        .iter()
        .map(|w| w.query.clone())
        .collect();
    let bench_c: Vec<f64> = bench_q
        .iter()
        .map(|q| exact_cardinality(db, q).unwrap())
        .collect();

    println!(
        "{:<8} {:>30} {:>30}",
        "method", "in-distribution Q50/90/99", "benchmark Q50/90/99"
    );
    let mscn = Mscn::fit(db, &train, &bench.config.settings.mscn);
    let lwnn = LwNn::fit(db, &train, &bench.config.settings.lw_nn);
    for (name, est) in [
        ("MSCN", &mscn as &dyn CardEst),
        ("LW-NN", &lwnn as &dyn CardEst),
    ] {
        let (i50, i90, i99) = q_errors_on(est, db, heldout_q, heldout_c);
        let (b50, b90, b99) = q_errors_on(est, db, &bench_q, &bench_c);
        println!(
            "{name:<8} {:>30} {:>30}",
            format!("{i50:.2}/{i90:.2}/{i99:.2}"),
            format!("{b50:.2}/{b90:.2}/{b99:.2}")
        );
    }
    println!("\nQuery-driven estimators degrade off their training distribution —");
    println!("the paper's explanation for their unstable end-to-end results.");
    Ok(())
}
