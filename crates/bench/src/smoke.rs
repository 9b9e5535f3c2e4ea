//! `cardbench smoke <suite>`: the five CI gates. Each suite drives one
//! subsystem end to end on the configured (CI: `CARDBENCH_FAST=1`)
//! dataset, fails on any violated invariant, and — run with `--trace` —
//! must have emitted the spans and metric families of its [`Required`]
//! table, which the binary validates on the written profile before it
//! exits. Contracts that a test pins bit for bit (kill/resume,
//! feedback-off, all-non-finite estimates, the sketch poison grid) live
//! in those tests, not here; DESIGN.md §4 has the ledger.

use std::sync::Arc;
use std::time::Duration;

use cardbench_datagen::stats::{churn_sample, temporal_split, SPLIT_DAY};
use cardbench_datagen::stats_catalog;
use cardbench_engine::{CostModel, Database, TrueCardService};
use cardbench_estimators::chaos::{ChaosConfig, ChaosEst, FaultClass};
use cardbench_estimators::lw::TrainingSet;
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_harness::report::table_faults;
use cardbench_harness::{
    build_estimator, median_p_error, median_q_error, run_adaptive_experiment, run_workload, Bench,
    BenchConfig, MethodRun,
};
use cardbench_metrics::percentile;
use cardbench_query::{connected_subsets, SubPlanQuery};
use cardbench_serve::{
    run_load, BreakerConfig, BreakerState, HealthProbes, LoadConfig, LoadReport, PromServer,
    ServeConfig, Server, TickFault,
};
use cardbench_sketch::SketchEst;
use cardbench_workload::{stats_ceb, Workload};

use crate::args::{Args, Fail};
use crate::serving::{closed_loop, coalescing_sessions, guard, plans_clean, Fixture};
use crate::trace_check::Required;

/// One smoke suite: its name, how to run it, what its trace must hold.
struct Suite {
    name: &'static str,
    run: fn(&Args) -> Result<(), Fail>,
    required: Required,
}

const SUITES: [Suite; 5] = [
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
        run: serve,
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
        run: chaos_serve,
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

/// One load phase, its outcome on stderr.
fn load_phase(
    phase: &str,
    srv: &Arc<Server>,
    wl: &Workload,
    load: &LoadConfig,
) -> Result<LoadReport, String> {
    let r = run_load(srv, wl, load)?;
    eprintln!(
        "[{phase}] {} completed ({:.0} qps, p50 {:.4}s p99 {:.4}s), {} typed failures, \
         {} clean / {} shorted / {} degraded",
        r.completed,
        r.qps,
        percentile(&r.latencies, 0.50),
        percentile(&r.latencies, 0.99),
        r.est_failures,
        r.clean_latencies.len(),
        r.shorted_latencies.len(),
        r.degraded_latencies.len(),
    );
    guard(phase, &r)?;
    Ok(r)
}

/// Binds the live metrics endpoint on an ephemeral loopback port.
fn prom_endpoint(probes: Option<HealthProbes>) -> Result<PromServer, String> {
    match probes {
        Some(probes) => PromServer::bind_with_probes("127.0.0.1:0", probes),
        None => PromServer::bind("127.0.0.1:0"),
    }
    .map_err(|e| format!("cannot bind the prometheus endpoint: {e}"))
}

/// Scrapes the live endpoint; while recording is on, `family` must be in
/// the answer.
fn scrape(prom: &PromServer, family: &str) -> Result<(), String> {
    let body = prom
        .scrape()
        .map_err(|e| format!("self-scrape failed: {e}"))?;
    ensure!(
        !cardbench_obs::enabled() || body.contains(family),
        "scrape lacks {family}"
    );
    eprintln!(
        "[smoke] scrape of http://{} OK ({} bytes)",
        prom.local_addr(),
        body.len()
    );
    Ok(())
}

/// Stands up the estimation service over MSCN, replays the workload
/// through more concurrent sessions than cores (the coalesced route),
/// scrapes the live Prometheus endpoint while the server still exists,
/// then replays it on one session, which must tick inline.
fn serve(args: &Args) -> Result<(), Fail> {
    let cfg = args.config();
    eprintln!("[serve] building benchmark (seed {})...", cfg.settings.seed);
    let bench = Bench::build(cfg);
    let built = build_estimator(
        EstimatorKind::Mscn,
        &bench.stats_db,
        &bench.stats_train,
        &bench.config.settings,
    );
    let fx = Fixture::new(bench.stats_db, bench.stats_wl);
    let sessions = coalescing_sessions();
    let server = fx.serve(
        Arc::from(built.est),
        ServeConfig {
            max_sessions: sessions,
            ..ServeConfig::default()
        },
    );
    let prom = prom_endpoint(None)?;
    load_phase("serve", &server, &fx.wl, &closed_loop(sessions, 1))?;
    let coalesced = server.stats();
    ensure!(
        coalesced.coalesced_jobs > 0,
        "{sessions} sessions must reach the coalescer"
    );
    scrape(&prom, "cardbench_serve_queries_total")?;
    load_phase("serve/1 session", &server, &fx.wl, &closed_loop(1, 1))?;
    let lone = server.stats();
    ensure!(
        lone.coalesced_jobs == coalesced.coalesced_jobs && lone.inline_jobs > coalesced.inline_jobs,
        "a lone session must tick inline: {} more coalesced, {} more inline jobs",
        lone.coalesced_jobs - coalesced.coalesced_jobs,
        lone.inline_jobs - coalesced.inline_jobs
    );
    Ok(())
}

/// Drives the service through the three chaos regimes — estimator fault
/// storms (circuit breaker), slow ticks against request deadlines, and
/// tick panics on the coalesced route:
///
/// - a total storm trips the breaker and slots short; `/healthz` stays
///   200 while `/readyz` reports 503;
/// - queue-expired deadlines fast-fail typed without estimator calls;
/// - injected tick panics degrade their queries typed and serving
///   recovers to clean answers.
fn chaos_serve(args: &Args) -> Result<(), Fail> {
    let (db, wl) = stats_fixture(&args.config());
    let fx = Fixture::new(db, wl);
    let sessions = coalescing_sessions();
    let server = |serve: ServeConfig| {
        fx.serve(
            fx.postgres(),
            ServeConfig {
                max_sessions: sessions,
                ..serve
            },
        )
    };
    let load = closed_loop(sessions, 2);

    // Phase 1: permanent estimator storm behind a tight breaker. The
    // first ticks' slots time out, the breaker opens, and everything
    // after shorts to the fallback.
    let srv = server(ServeConfig {
        chaos: Some(ChaosConfig {
            seed: 17,
            rate: 1.0,
            classes: vec![TickFault::Storm],
            stall: Duration::from_millis(5),
            ..ChaosConfig::default()
        }),
        breaker: Some(BreakerConfig {
            window: 32,
            open_threshold: 0.5,
            min_samples: 4,
            cooldown: Duration::from_secs(600),
        }),
        ..ServeConfig::default()
    });
    let prom = prom_endpoint(Some(srv.probes()))?;
    load_phase("storm/breaker", &srv, &fx.wl, &load)?;
    let stats = srv.stats();
    ensure!(
        stats.breaker.opens > 0 && stats.breaker_state == Some(BreakerState::Open),
        "a total storm must trip the breaker"
    );
    ensure!(
        stats.breaker.shorted_slots > 0,
        "an open breaker must short slots"
    );
    // Probes against the live (storming) server: still healthy — no
    // tick is wedged — but not ready.
    let probe = |path: &str| {
        prom.get(path)
            .map_err(|e| format!("{path} request failed: {e}"))
    };
    let (code, body) = probe("/healthz")?;
    ensure!(
        code == 200,
        "/healthz under storm must be 200, got {code} ({body})"
    );
    let (code, body) = probe("/readyz")?;
    ensure!(
        code == 503 && body.contains("breaker"),
        "/readyz with the breaker open must be 503 naming the breaker, got {code} ({body})"
    );
    scrape(&prom, "cardbench_serve_breaker_state")?;
    drop(prom);
    drop(srv);

    // Phase 2: chaos-slowed ticks against a per-request deadline;
    // slots expire in the queue and fast-fail typed.
    let srv = server(ServeConfig {
        chaos: Some(ChaosConfig {
            seed: 19,
            rate: 1.0,
            classes: vec![TickFault::Slow],
            stall: Duration::from_millis(20),
            ..ChaosConfig::default()
        }),
        breaker: None,
        ..ServeConfig::default()
    });
    let deadlined = LoadConfig {
        deadline: Some(Duration::from_millis(4)),
        ..load.clone()
    };
    load_phase("slow/deadline", &srv, &fx.wl, &deadlined)?;
    ensure!(
        srv.stats().deadline_expired_slots > 0,
        "slow ticks against a tight deadline must expire slots in the queue"
    );
    drop(srv);

    // Phase 3: the chaos injector panics coalesced ticks (bounded
    // budget); each degrades its jobs typed and serving ends clean.
    let srv = server(ServeConfig {
        chaos: Some(ChaosConfig {
            seed: 23,
            rate: 0.5,
            classes: vec![TickFault::Panic],
            max_panics: Some(2),
            ..ChaosConfig::default()
        }),
        ..ServeConfig::default()
    });
    let r = load_phase("tick-panics", &srv, &fx.wl, &load)?;
    ensure!(
        srv.stats().chaos_panics > 0 && !r.degraded_latencies.is_empty(),
        "the panic phase must panic ticks and degrade their queries"
    );
    Ok(plans_clean(&srv, &fx.wl)?)
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
