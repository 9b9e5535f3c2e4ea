//! `cardbench report <target>`: the paper's tables and figures, the
//! O1–O14 observation checks, and the auxiliary experiments of
//! [`crate::experiments`]. Every target reads one lazily built [`Eval`],
//! so `report all` trains and runs every estimator exactly once.

use std::cell::OnceCell;
use std::time::Instant;

use cardbench_datagen::dataset_profile;
use cardbench_engine::{CostModel, TrueCardService};
use cardbench_estimators::EstimatorKind;
use cardbench_harness::case_study::{case_study, pick_case_query};
use cardbench_harness::report as render;
use cardbench_harness::update_exp::{run_update_experiment, table6};
use cardbench_harness::{
    build_estimator, check_observations, render_checks, results_from_json, results_to_json,
    run_workload, Bench, BenchConfig, MethodRun, RunOptions, RESULT_WORKLOADS,
};

use crate::args::{Args, Fail};
use crate::experiments;
use crate::trace_check::Required;

/// Where `report all` leaves every run it evaluated, query by query, and
/// where `report observations` reads them back.
const RESULTS_PATH: &str = "cardbench_results.json";

/// One report target: its name and how to print it.
type Report = (&'static str, fn(&Eval) -> Result<(), String>);

/// Every report: the paper's tables and figures first, in the order
/// `all` prints them.
const REPORTS: [Report; 19] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("table6", table6_update),
    ("table7", table7),
    ("figure1", figure1),
    ("figure2", figure2),
    ("figure3", figure3),
    ("all", all),
    ("observations", observations),
    ("ablation", experiments::ablation),
    ("cost-alignment", experiments::cost_alignment),
    ("noise-sensitivity", experiments::noise_sensitivity),
    ("optimizer-shapes", experiments::optimizer_shapes),
    ("rd3-calibration", experiments::rd3_calibration),
    ("update-scaling", experiments::update_scaling),
    ("workload-shift", experiments::workload_shift),
];

/// How many leading entries of [`REPORTS`] make up `all`.
const PAPER_REPORTS: usize = 10;

/// Target names, for the usage text.
pub fn targets() -> Vec<&'static str> {
    REPORTS.iter().map(|&(name, _)| name).collect()
}

pub fn run(args: &Args) -> Result<Option<&'static Required>, Fail> {
    let (_, report) = args.target(&REPORTS, |r| r.0)?;
    let eval = Eval {
        cfg: args.config(),
        opts: args.run_options(),
        bench: OnceCell::new(),
        runs: OnceCell::new(),
    };
    report(&eval)?;
    Ok(None)
}

/// The evaluation a report reads from; each stage is built on first use.
pub struct Eval {
    /// Configuration from the environment and `--threads`.
    pub cfg: BenchConfig,
    opts: RunOptions,
    bench: OnceCell<Bench>,
    runs: OnceCell<[Vec<MethodRun>; 2]>,
}

impl Eval {
    /// The materialized benchmark: both databases, workloads, training sets.
    pub fn bench(&self) -> &Bench {
        self.bench.get_or_init(|| {
            eprintln!(
                "[cardbench] building datasets (STATS scale {}, seed {})...",
                self.cfg.stats.scale, self.cfg.settings.seed
            );
            let t0 = Instant::now();
            let bench = Bench::build(self.cfg.clone());
            eprintln!(
                "[cardbench] built: STATS {} rows / {} queries, IMDB {} rows / {} queries ({:.1?})",
                bench.stats_db.catalog().total_rows(),
                bench.stats_wl.queries.len(),
                bench.imdb_db.catalog().total_rows(),
                bench.imdb_wl.queries.len(),
                t0.elapsed()
            );
            bench
        })
    }

    /// Every estimator on `[JOB-LIGHT, STATS-CEB]`, progress on stderr.
    fn runs(&self) -> &[Vec<MethodRun>; 2] {
        self.runs.get_or_init(|| self.run_full())
    }

    fn run_full(&self) -> [Vec<MethodRun>; 2] {
        let _run_sp = cardbench_obs::span_with("run", "run", || "full-eval".to_string());
        let bench = self.bench();
        let cost = CostModel::default();
        let mut runs = [Vec::new(), Vec::new()];
        // A shared checkpoint file must only be truncated once: the first
        // run creates it (unless resuming), every later (estimator,
        // workload) run appends — their records are keyed by method and
        // workload, so they never collide.
        let mut first_run = true;
        // Truth is estimator-free: one service per dataset serves every
        // estimator's sub-plan truths.
        let truths = [TrueCardService::new(), TrueCardService::new()];
        for kind in EstimatorKind::ALL {
            let _est_sp = cardbench_obs::span_with("estimator", "run", || kind.name().to_string());
            for (out, label) in RESULT_WORKLOADS.into_iter().enumerate() {
                let (db, wl, train) = match out {
                    0 => (&bench.imdb_db, &bench.imdb_wl, &bench.imdb_train),
                    _ => (&bench.stats_db, &bench.stats_wl, &bench.stats_train),
                };
                let t0 = Instant::now();
                let built = build_estimator(kind, db, train, &bench.config.settings);
                let mut opts = self.opts.clone();
                opts.resume = opts.resume || !first_run;
                first_run = false;
                let queries = run_workload(db, wl, built.est.as_ref(), &truths[out], &cost, &opts);
                let run = MethodRun {
                    kind,
                    train_time: built.train_time,
                    model_size: built.model_size,
                    queries,
                };
                eprintln!(
                    "[cardbench] {:<12} {:<10} train {:>9.2?} e2e {:>9.2?} (total {:.1?})",
                    kind.name(),
                    label,
                    run.train_time,
                    run.e2e_total(),
                    t0.elapsed()
                );
                runs[out].push(run);
            }
        }
        runs
    }
}

/// Table 1: dataset statistics (IMDB vs STATS).
fn table1(e: &Eval) -> Result<(), String> {
    let b = e.bench();
    let imdb = dataset_profile("IMDB", b.imdb_db.catalog());
    let stats = dataset_profile("STATS", b.stats_db.catalog());
    println!("{}", render::table1(&imdb, &stats));
    Ok(())
}

/// Table 2: workload statistics (JOB-LIGHT vs STATS-CEB).
fn table2(e: &Eval) -> Result<(), String> {
    let b = e.bench();
    println!(
        "{}",
        render::table2(&b.imdb_db, &b.imdb_wl, &b.stats_db, &b.stats_wl)
    );
    Ok(())
}

/// Table 3: end-to-end performance of every estimator on both
/// workloads, with the operator-level execution counters.
fn table3(e: &Eval) -> Result<(), String> {
    let [imdb, stats] = e.runs();
    println!("{}", render::table3(imdb, stats));
    println!("{}", render::table_exec_counters(imdb, "JOB-LIGHT"));
    println!("{}", render::table_exec_counters(stats, "STATS-CEB"));
    Ok(())
}

/// Table 4: end-to-end improvement and Q-Error by number of joined
/// tables on STATS-CEB.
fn table4(e: &Eval) -> Result<(), String> {
    let [_, stats] = e.runs();
    println!("{}", render::table4(stats));
    println!("{}", render::table4_qerrors(stats));
    Ok(())
}

/// Table 5: OLTP/OLAP split of execution and planning time.
fn table5(e: &Eval) -> Result<(), String> {
    println!("{}", render::table5(&e.runs()[1]));
    Ok(())
}

/// Table 6: the dynamic-update experiment on STATS.
fn table6_update(e: &Eval) -> Result<(), String> {
    let updates = run_update_experiment(
        e.bench().stats_db.catalog(),
        &e.bench().stats_wl,
        &e.cfg.settings,
        &CostModel::default(),
    );
    println!("{}", table6(&updates));
    Ok(())
}

/// Table 7: Q-Error vs P-Error distributions and their correlation
/// with execution time.
fn table7(e: &Eval) -> Result<(), String> {
    let [imdb, stats] = e.runs();
    println!("{}", render::table7(imdb, "JOB-LIGHT"));
    println!("{}", render::table7(stats, "STATS-CEB"));
    Ok(())
}

/// Figure 1: the STATS schema join graph (DOT format).
fn figure1(e: &Eval) -> Result<(), String> {
    println!(
        "Figure 1 (DOT):\n{}",
        render::figure1_dot(&e.bench().stats_db)
    );
    Ok(())
}

/// Annotated plan trees of contrasting estimators on the
/// largest-cardinality STATS-CEB query.
fn figure2(e: &Eval) -> Result<(), String> {
    let b = e.bench();
    let truth = TrueCardService::new();
    let wq = pick_case_query(&b.stats_wl);
    println!("Figure 2 case study: Q{}", wq.id);
    for kind in [
        EstimatorKind::TrueCard,
        EstimatorKind::Flat,
        EstimatorKind::BayesCard,
    ] {
        let built = build_estimator(kind, &b.stats_db, &b.stats_train, &b.config.settings);
        println!(
            "{}",
            case_study(
                &b.stats_db,
                wq,
                built.est.as_ref(),
                &truth,
                &CostModel::default()
            )
        );
    }
    Ok(())
}

/// Figure 3: inference latency, model size and training time.
fn figure3(e: &Eval) -> Result<(), String> {
    let [imdb, stats] = e.runs();
    println!("{}", render::figure3(imdb, "JOB-LIGHT"));
    println!("{}", render::figure3(stats, "STATS-CEB"));
    Ok(())
}

/// Every table and figure from one evaluation; also writes its runs to
/// [`RESULTS_PATH`].
fn all(e: &Eval) -> Result<(), String> {
    for (_, report) in &REPORTS[..PAPER_REPORTS] {
        report(e)?;
    }
    match std::fs::write(RESULTS_PATH, results_to_json(e.runs())) {
        Ok(()) => eprintln!("[cardbench] wrote {RESULTS_PATH}"),
        Err(err) => eprintln!("[cardbench] could not write {RESULTS_PATH}: {err}"),
    }
    Ok(())
}

/// Checks the paper's observations (O1-O14 shape assertions) against the
/// runs in [`RESULTS_PATH`], or against a fresh evaluation when it is
/// absent.
fn observations(e: &Eval) -> Result<(), String> {
    let read_back;
    let runs = match std::fs::read_to_string(RESULTS_PATH) {
        Ok(text) => {
            read_back = results_from_json(&text).map_err(|e| format!("{RESULTS_PATH}: {e}"))?;
            &read_back
        }
        Err(_) => {
            eprintln!("[observations] {RESULTS_PATH} not found; running the full evaluation");
            e.runs()
        }
    };
    let checks = check_observations(runs);
    print!("{}", render_checks(&checks));
    if checks.iter().any(|c| !c.pass) {
        return Err("an observation check failed".into());
    }
    Ok(())
}
