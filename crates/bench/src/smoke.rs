//! `cardbench smoke <suite>`: the six CI gates, one driver per study.
//! Each suite drives one subsystem end to end on the configured (CI:
//! `CARDBENCH_FAST=1`) dataset, fails on any violated invariant, and —
//! run with `--trace` — must have emitted the spans and metric families
//! of its [`Required`] table, which the binary validates on the written
//! profile before it exits. `executor`, `serve` and `chaos-serve` are the
//! scaling studies of [`crate::sweep`]: smoke-sized under
//! `CARDBENCH_FAST=1`, full-sized otherwise, when they also write
//! `BENCH_<name>.json`. Contracts that a test pins bit for bit
//! (kill/resume, feedback-off, all-non-finite estimates, the sketch
//! poison grid) live in those tests, not here; DESIGN.md §4 has the
//! ledger.

use std::time::Duration;

use cardbench_datagen::stats::{churn_sample, temporal_split, SPLIT_DAY};
use cardbench_datagen::stats_catalog;
use cardbench_engine::{CostModel, Database, TrueCardService};
use cardbench_estimators::chaos::{ChaosConfig, ChaosEst, FaultClass};
use cardbench_estimators::lw::TrainingSet;
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_harness::report::table_faults;
use cardbench_harness::{
    build_estimator, median_p_error, median_q_error, run_adaptive_experiment, run_workload,
    BenchConfig, MethodRun,
};
use cardbench_query::{connected_subsets, SubPlanQuery};
use cardbench_sketch::SketchEst;
use cardbench_workload::{stats_ceb, Workload};

use crate::args::{fast, Args, Fail};
use crate::sweep;
use crate::trace_check::Required;

/// One smoke suite: its name, how to run it, what its trace must hold.
struct Suite {
    name: &'static str,
    run: fn(&Args) -> Result<(), Fail>,
    required: Required,
}

const SUITES: [Suite; 6] = [
    Suite {
        name: "chaos",
        run: chaos,
        // A zero delta still registers its series, so both families of
        // every engine cache say the run folded that cache's counters,
        // whether the cache hit, missed or was warm already.
        required: Required {
            spans: &[
                "run",
                "estimator",
                "workload",
                "plan",
                "estimate",
                "execute",
                "scan",
                "join",
                "subplan_batch",
                "topology",
            ],
            families: &[
                "cardbench_estimate_latency_seconds",
                "cardbench_est_failures_total",
                "cardbench_excluded_qerrors_total",
                "cardbench_clamped_subplans_total",
                "cardbench_fallback_subplans_total",
                "cardbench_join_build_rows_total",
                "cardbench_join_probe_rows_total",
                "cardbench_peak_intermediate_bytes",
                "cardbench_exec_scratch_bytes",
                "cardbench_filter_cache_hits_total",
                "cardbench_filter_cache_misses_total",
                "cardbench_agg_memo_hits_total",
                "cardbench_agg_memo_misses_total",
                "cardbench_truecard_cache_hits_total",
                "cardbench_truecard_cache_misses_total",
                "cardbench_topology_cache_hits_total",
                "cardbench_topology_cache_misses_total",
            ],
        },
    },
    Suite {
        name: "serve",
        run: |_| Ok(sweep::serve::run(fast())?),
        required: Required {
            spans: &SERVE_SPANS,
            families: &[
                "cardbench_serve_queries_total",
                "cardbench_serve_coalesced_batches_total",
                "cardbench_serve_coalesced_jobs_total",
                "cardbench_serve_deduped_subplans_total",
                "cardbench_serve_estimate_latency_seconds",
                "cardbench_serve_plan_latency_seconds",
                "cardbench_serve_sessions_active",
            ],
        },
    },
    Suite {
        name: "chaos-serve",
        run: |_| Ok(sweep::chaos::run(fast())?),
        required: Required {
            spans: &SERVE_SPANS,
            families: &[
                "cardbench_serve_queries_total",
                "cardbench_serve_breaker_transitions_total",
                "cardbench_serve_breaker_state",
                "cardbench_serve_breaker_shorted_total",
                "cardbench_serve_chaos_faults_total",
                "cardbench_serve_deadline_exceeded_total",
            ],
        },
    },
    Suite {
        name: "adaptive",
        run: adaptive,
        required: Required {
            spans: &["run", "workload", "feedback", "plan", "execute"],
            families: &[
                "cardbench_feedback_hits_total",
                "cardbench_feedback_misses_total",
                "cardbench_feedback_overrides_total",
                "cardbench_feedback_corrections_total",
                "cardbench_feedback_observations_total",
            ],
        },
    },
    Suite {
        name: "sketch",
        run: sketch,
        required: Required {
            spans: &["run", "sketch_build"],
            families: &[
                "cardbench_sketch_merges_total",
                "cardbench_sketch_inserts_total",
                "cardbench_sketch_deletes_total",
                "cardbench_sketch_estimates_total",
            ],
        },
    },
    Suite {
        name: "executor",
        run: |_| Ok(sweep::executor::run(fast())?),
        // The kernels are timed bare; only the arena section runs whole
        // plans through the executor.
        required: Required {
            spans: &["run", "scan", "join"],
            families: &[],
        },
    },
];

/// The serving layer's span contract: per-session `session` spans nested
/// in per-thread `run` spans, a `coalesced_batch` span per tick on the
/// session thread that ran it (a coalesced tick's leader, or inline).
const SERVE_SPANS: [&str; 5] = ["run", "session", "coalesced_batch", "plan", "subplan_batch"];

/// Suite names, for the usage text.
pub fn targets() -> Vec<&'static str> {
    SUITES.iter().map(|s| s.name).collect()
}

pub fn run(args: &Args) -> Result<Option<&'static Required>, Fail> {
    let suite = args.target(&SUITES, |s| s.name)?;
    let name = suite.name;
    {
        let _run_sp = cardbench_obs::span_with("run", "run", || format!("{name}-smoke"));
        (suite.run)(args)?;
    }
    println!("{name} smoke OK");
    Ok(Some(&suite.required))
}

/// The STATS database and STATS-CEB analog workload of `cfg`.
fn stats_fixture(cfg: &BenchConfig) -> (Database, Workload) {
    eprintln!(
        "[smoke] building STATS dataset + workload (seed {})...",
        cfg.settings.seed
    );
    let db = Database::new(stats_catalog(&cfg.stats));
    let wl = stats_ceb(&db, &cfg.stats_workload);
    assert!(!wl.queries.is_empty(), "smoke workload is empty");
    (db, wl)
}

/// Wraps the PostgreSQL baseline in [`ChaosEst`] at a 20% fault rate
/// across *every* fault class (panics, NaN/±inf/negative/zero values,
/// delays) and runs the STATS-CEB workload under estimate timeouts and
/// an executor memory budget. The run must complete with typed
/// failures — no abort.
fn chaos(args: &Args) -> Result<(), Fail> {
    let cfg = args.config();
    let mut opts = args.run_options();
    opts.timeout.get_or_insert(Duration::from_millis(10));
    opts.mem_budget_bytes.get_or_insert(512 << 20);
    let (db, wl) = stats_fixture(&cfg);

    let _est_sp = cardbench_obs::span_with("estimator", "run", || "ChaosEst".to_string());
    let built = build_estimator(
        EstimatorKind::Postgres,
        &db,
        &TrainingSet::default(),
        &cfg.settings,
    );
    let faults = ChaosConfig {
        seed: cfg.settings.seed,
        rate: 0.2,
        classes: FaultClass::ALL.to_vec(),
        stall: Duration::from_millis(20),
        ..ChaosConfig::default()
    };
    let chaos = ChaosEst::new(built.est, faults);
    let truth = TrueCardService::new();
    let queries = run_workload(&db, &wl, &chaos, &truth, &CostModel::default(), &opts);
    let run = MethodRun {
        kind: EstimatorKind::Postgres,
        train_time: built.train_time,
        model_size: built.model_size,
        queries,
    };
    print!("{}", table_faults(std::slice::from_ref(&run), &wl.name));
    ensure!(
        run.est_failure_total() > 0,
        "chaos injected no faults — smoke test is vacuous"
    );
    eprintln!(
        "[chaos] {} typed estimate failures, {} fallbacks, {} failed queries, run completed",
        run.est_failure_total(),
        run.fallback_total(),
        run.failed_queries(),
    );
    Ok(())
}

/// Runs the four-pass drift experiment (warmup, warm replay, post-shift,
/// recovered) with the PostgreSQL baseline wrapped in the feedback
/// estimator: the warm replay and the recovered pass must be
/// oracle-exact (median Q-Error and P-Error 1.0) — accuracy improved
/// with queries seen and survived the data shift — and the store must
/// actually have observed and overridden.
fn adaptive(args: &Args) -> Result<(), Fail> {
    let cfg = args.config();
    let opts = args.run_options();
    // The drift experiment regenerates its own pre-/post-cutoff halves
    // from the same config; the workload shares the schema.
    let (_, wl) = stats_fixture(&cfg);
    let exp = run_adaptive_experiment(
        &cfg.stats,
        &wl,
        EstimatorKind::Postgres,
        &TrainingSet::default(),
        &cfg.settings,
        &CostModel::default(),
        &opts,
    );
    let (qw, qr, qp, qc) = (
        median_q_error(&exp.warmup),
        median_q_error(&exp.replay),
        median_q_error(&exp.post_shift),
        median_q_error(&exp.recovered),
    );
    eprintln!(
        "[adaptive] median q-error: warmup {qw:.4} | replay {qr:.4} | post-shift {qp:.4} \
         | recovered {qc:.4}"
    );
    eprintln!(
        "[adaptive] store: {} observations, {} overrides, {} corrections, {} rejected",
        exp.stats.observations, exp.stats.overrides, exp.stats.corrections, exp.stats.rejected
    );
    ensure!(
        (qr - 1.0).abs() <= 1e-9 && (median_p_error(&exp.replay) - 1.0).abs() <= 1e-9,
        "warm replay is not oracle-exact"
    );
    ensure!(
        qr <= qw + 1e-9,
        "replay worse than warmup: feedback made accuracy worse"
    );
    ensure!(
        (qc - 1.0).abs() <= 1e-9,
        "no recovery after the temporal shift"
    );
    ensure!(
        exp.stats.observations > 0 && exp.stats.overrides > 0,
        "store never observed/overrode — smoke test is vacuous"
    );
    Ok(())
}

/// The sketch path end to end: the 4-shard and auto-sharded builds land
/// on the sequential scan's state, a batch over every connected sub-plan
/// is finite, streaming the temporal-split insert delta into the stale
/// model lands on the from-scratch rebuild, and a churn delete stream is
/// absorbed.
fn sketch(args: &Args) -> Result<(), Fail> {
    let cfg = args.config();
    let sketch_cfg = &cfg.settings.sketch;
    let (db, wl) = stats_fixture(&cfg);

    let sequential = SketchEst::fit_sharded(&db, sketch_cfg, 1);
    let sharded = SketchEst::fit_sharded(&db, sketch_cfg, 4);
    let auto = SketchEst::fit(&db, sketch_cfg);
    ensure!(
        sequential.state_digest() == sharded.state_digest(),
        "4-shard build diverged from the sequential scan"
    );
    ensure!(
        sequential.state_digest() == auto.state_digest(),
        "auto-shard build diverged from the sequential scan"
    );
    eprintln!(
        "[sketch] sharded build bit-identical ({} B model)",
        sequential.model_size_bytes()
    );

    let subs: Vec<SubPlanQuery> = wl
        .queries
        .iter()
        .flat_map(|wq| {
            connected_subsets(&wq.query)
                .into_iter()
                .map(|mask| SubPlanQuery::project(&wq.query, mask))
        })
        .collect();
    let batched = sequential.estimate_batch(&db, &subs);
    ensure!(
        batched.len() == subs.len() && batched.iter().all(|e| e.is_finite() && *e >= 0.0),
        "estimate_batch returned a wrong arity or a non-finite estimate"
    );
    eprintln!("[sketch] {} sub-plan estimates finite", subs.len());

    let (stale_cat, inserts) = temporal_split(&stats_catalog(&cfg.stats), SPLIT_DAY);
    let mut shifted = Database::new(stale_cat);
    let mut refreshed = SketchEst::fit(&shifted, sketch_cfg);
    shifted.append_inserts(&inserts).expect("aligned schemas");
    refreshed.apply_inserts(&shifted, &inserts);
    ensure!(
        refreshed.state_digest() == SketchEst::fit_sharded(&shifted, sketch_cfg, 1).state_digest(),
        "insert-stream refresh diverged from the full rebuild"
    );
    let delta_rows: usize = inserts.iter().map(|t| t.row_count()).sum();
    eprintln!("[sketch] refresh of {delta_rows} streamed rows matches the rebuild");

    let mut churned = sequential.clone();
    let churn = churn_sample(db.catalog(), 0.25, cfg.settings.seed);
    ensure!(
        churn.iter().any(|t| t.row_count() > 0),
        "churn sample is empty — delete path unexercised"
    );
    churned.apply_deletes(&churn);
    ensure!(
        churned.state_digest() != sequential.state_digest(),
        "delete stream did not change the sketch state"
    );
    Ok(())
}
