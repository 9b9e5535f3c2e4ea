//! Fault-tolerance integration tests: the harness must survive every
//! chaos fault class with typed failures, degrade gracefully under
//! budgets, and reproduce interrupted runs bit-identically on resume.

use std::sync::OnceLock;
use std::time::Duration;

use cardbench_engine::{
    clamp_row_est, try_execute_with, CostModel, ExecError, ExecScratch, JoinAlgo, PhysicalPlan,
    TrueCardService,
};
use cardbench_estimators::chaos::{ChaosEst, FaultClass};
use cardbench_estimators::postgres::PostgresEst;
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_harness::report::table_faults;
use cardbench_harness::{
    build_estimator, estimate_all, plan_query_via, run_workload_with_options, Bench, BenchConfig,
    MethodRun, QueryRun, RunOptions,
};
use cardbench_support::proptest::prelude::*;

/// One shared tier-1 benchmark for the whole test binary; building it
/// (datasets + workloads + training split) dominates test wall time.
fn bench() -> &'static Bench {
    static B: OnceLock<Bench> = OnceLock::new();
    B.get_or_init(|| Bench::build(BenchConfig::fast(5)))
}

fn postgres_chaos(rate: f64, classes: Vec<FaultClass>) -> ChaosEst {
    let b = bench();
    let built = build_estimator(
        EstimatorKind::Postgres,
        &b.stats_db,
        &b.stats_train,
        &b.config.settings,
    );
    ChaosEst::with_classes(built.est, b.config.settings.seed, rate, classes)
}

fn run_with(est: &dyn CardEst, truth: &TrueCardService, opts: &RunOptions) -> Vec<QueryRun> {
    let b = bench();
    run_workload_with_options(
        &b.stats_db,
        &b.stats_wl,
        est,
        truth,
        &CostModel::default(),
        opts,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `clamp_row_est` maps EVERY f64 bit pattern — NaN, ±inf,
    /// subnormals, negatives — into [1.0, upper] for any sane bound.
    #[test]
    fn clamp_maps_every_f64_into_bounds(
        bits in any::<u64>(),
        upper in 1.0f64..1e15,
    ) {
        let v = f64::from_bits(bits);
        let (clamped, _) = clamp_row_est(v, upper);
        prop_assert!(clamped.is_finite(), "{v} -> {clamped}");
        prop_assert!(clamped >= 1.0, "{v} -> {clamped}");
        prop_assert!(clamped <= upper, "{v} -> {clamped} > {upper}");
    }

    /// Even the bound itself can be garbage; the result is still a
    /// finite row count of at least 1.
    #[test]
    fn clamp_survives_garbage_bounds(bits in any::<u64>(), ub_bits in any::<u64>()) {
        let (clamped, _) = clamp_row_est(f64::from_bits(bits), f64::from_bits(ub_bits));
        prop_assert!(clamped.is_finite() && clamped >= 1.0);
    }
}

/// Every fault class, injected on 100% of sub-plan estimates, must
/// leave the run complete with the right typed failure attribution —
/// and the executed COUNT(*) must still equal the true cardinality
/// (fault tolerance may cost plan quality, never correctness).
#[test]
fn every_fault_class_survives_at_full_rate() {
    let truth = TrueCardService::new();
    for class in FaultClass::ALL {
        let chaos = postgres_chaos(1.0, vec![class]).delay(Duration::from_millis(5));
        let mut opts = RunOptions::with_threads(2);
        // A 1ms budget converts every 5ms Delay fault into TimedOut.
        // Only set for Delay: the timeout check precedes the value
        // checks, so scheduler jitter on a loaded test machine could
        // otherwise reclassify an instant NaN return as timed_out.
        if class == FaultClass::Delay {
            opts.timeout = Some(Duration::from_millis(1));
        }
        let runs = run_with(&chaos, &truth, &opts);
        assert_eq!(runs.len(), bench().stats_wl.queries.len());
        for run in &runs {
            assert!(run.completed(), "{}: Q{} failed", class.name(), run.id);
            assert_eq!(
                run.result_rows as f64,
                run.true_card,
                "{}: Q{} wrong result",
                class.name(),
                run.id
            );
            for qe in &run.q_errors {
                assert!(
                    qe.is_finite() && *qe >= 1.0,
                    "{}: bad q_error {qe}",
                    class.name()
                );
            }
            let expect_kind = match class {
                FaultClass::Panic => Some("panicked"),
                FaultClass::Delay => Some("timed_out"),
                FaultClass::Nan | FaultClass::PosInf | FaultClass::NegInf => Some("non_finite"),
                FaultClass::Negative => Some("degenerate"),
                // Zero is a legal (empty) estimate: clamped to 1.0, not
                // recorded as a failure.
                FaultClass::Zero => None,
            };
            match expect_kind {
                Some(kind) => {
                    assert_eq!(run.est_failures.len(), run.subplans, "{}", class.name());
                    for f in &run.est_failures {
                        assert_eq!(f.error.kind(), kind, "{}", class.name());
                    }
                    if matches!(class, FaultClass::Panic | FaultClass::Delay) {
                        assert_eq!(run.fallback_subplans as usize, run.subplans);
                    }
                }
                None => {
                    assert!(run.est_failures.is_empty());
                    // Every zero estimate is clamped up to 1.0.
                    assert_eq!(run.clamped_subplans as usize, run.subplans);
                }
            }
        }
    }
}

/// Differential check: a 20%-chaos run still executes every non-failed
/// query to the exact same COUNT(*) as the TrueCard oracle run.
#[test]
fn chaos_run_matches_oracle_executed_results() {
    let b = bench();
    let truth = TrueCardService::new();
    let opts = RunOptions::with_threads(2);

    let oracle = build_estimator(
        EstimatorKind::TrueCard,
        &b.stats_db,
        &b.stats_train,
        &b.config.settings,
    );
    let clean = run_with(oracle.est.as_ref(), &truth, &opts);

    let chaos = postgres_chaos(0.2, FaultClass::VALUES.to_vec());
    let chaotic = run_with(&chaos, &truth, &opts);

    assert_eq!(clean.len(), chaotic.len());
    let mut faulted = 0usize;
    for (c, f) in clean.iter().zip(&chaotic) {
        assert_eq!(c.id, f.id);
        if f.completed() {
            assert_eq!(
                c.result_rows, f.result_rows,
                "Q{}: chaos changed the executed result",
                c.id
            );
        }
        faulted += f.est_failures.len();
    }
    assert!(faulted > 0, "20% chaos must actually inject faults");
}

/// Kill/resume: truncating the checkpoint mid-run and resuming must
/// reproduce the uninterrupted run bit-for-bit on every deterministic
/// field, even with value faults firing.
#[test]
fn killed_and_resumed_run_is_bit_identical() {
    let truth = TrueCardService::new();
    let ckpt = std::env::temp_dir().join(format!(
        "cardbench_fault_tolerance_resume_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&ckpt);

    let mut opts = RunOptions::with_threads(2);
    opts.checkpoint = Some(ckpt.clone());
    let full = run_with(
        &postgres_chaos(0.3, FaultClass::VALUES.to_vec()),
        &truth,
        &opts,
    );

    // Simulate a kill: keep only the first half of the records.
    let text = std::fs::read_to_string(&ckpt).expect("checkpoint written");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), full.len());
    let torn: String = lines[..lines.len() / 2]
        .iter()
        .map(|l| format!("{l}\n"))
        .collect();
    std::fs::write(&ckpt, torn).expect("truncate");

    opts.resume = true;
    let resumed = run_with(
        &postgres_chaos(0.3, FaultClass::VALUES.to_vec()),
        &truth,
        &opts,
    );
    let _ = std::fs::remove_file(&ckpt);

    assert_eq!(full.len(), resumed.len());
    for (a, b) in full.iter().zip(&resumed) {
        assert_eq!(a.id, b.id);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.sub_est_cards), bits(&b.sub_est_cards), "Q{}", a.id);
        assert_eq!(bits(&a.q_errors), bits(&b.q_errors), "Q{}", a.id);
        assert_eq!(a.p_error.to_bits(), b.p_error.to_bits(), "Q{}", a.id);
        assert_eq!(a.result_rows, b.result_rows, "Q{}", a.id);
        assert_eq!(a.exec_stats, b.exec_stats, "Q{}", a.id);
        assert_eq!(a.est_failures, b.est_failures, "Q{}", a.id);
        assert_eq!(a.failure, b.failure, "Q{}", a.id);
        assert_eq!(a.clamped_subplans, b.clamped_subplans, "Q{}", a.id);
        assert_eq!(a.fallback_subplans, b.fallback_subplans, "Q{}", a.id);
    }
}

/// A starved memory budget aborts individual queries with a typed
/// failure — the run and the report both survive.
#[test]
fn memory_budget_aborts_queries_not_the_run() {
    let b = bench();
    let truth = TrueCardService::new();
    let oracle = build_estimator(
        EstimatorKind::TrueCard,
        &b.stats_db,
        &b.stats_train,
        &b.config.settings,
    );
    let mut opts = RunOptions::with_threads(2);
    opts.mem_budget_bytes = Some(1);
    let runs = run_with(oracle.est.as_ref(), &truth, &opts);
    assert_eq!(runs.len(), b.stats_wl.queries.len());
    let failed: Vec<&QueryRun> = runs.iter().filter(|r| !r.completed()).collect();
    assert!(
        !failed.is_empty(),
        "a 1-byte budget must abort at least one join query"
    );
    for f in &failed {
        let failure = f.failure.as_ref().expect("typed failure");
        assert_eq!(failure.kind(), "exec_budget");
    }

    // The partial run renders: failed cells, not panics.
    let method = MethodRun {
        kind: EstimatorKind::TrueCard,
        train_time: Duration::ZERO,
        model_size: 0,
        queries: runs,
    };
    let report = table_faults(&[method], "STATS-CEB");
    assert!(report.contains("failed(memory budget exceeded"), "{report}");
}

/// The budget sees what a join kernel holds besides the live
/// intermediates: a budget of exactly a plan's peak live bytes admits the
/// plan with hash joins (no spill, so no kernel transients) and rejects
/// it with merge joins, whose sorted `(key, row)` pairs — 16 B per input
/// row — come on top. Before that accounting both fitted.
#[test]
fn memory_budget_counts_merge_sort_buffers() {
    fn with_algo(plan: &mut PhysicalPlan, to: JoinAlgo) {
        if let PhysicalPlan::Join {
            algo, left, right, ..
        } = plan
        {
            *algo = to;
            with_algo(left, to);
            with_algo(right, to);
        }
    }
    let b = bench();
    let truth = TrueCardService::new();
    let oracle = build_estimator(
        EstimatorKind::TrueCard,
        &b.stats_db,
        &b.stats_train,
        &b.config.settings,
    );
    let fallback: OnceLock<PostgresEst> = OnceLock::new();
    let mut scratch = ExecScratch::new();
    let mut checked = 0;
    for wq in &b.stats_wl.queries {
        let planned = plan_query_via(
            &b.stats_db,
            wq,
            &|subs| estimate_all(oracle.est.as_ref(), &b.stats_db, subs, None),
            &truth,
            &CostModel::default(),
            &fallback,
        );
        let (bound, mut plan) = planned.plan.expect("oracle plans every query");
        if !matches!(plan, PhysicalPlan::Join { .. }) {
            continue;
        }
        with_algo(&mut plan, JoinAlgo::Hash);
        let (rows, hash) = try_execute_with(&plan, &bound, &b.stats_db, &mut scratch, None)
            .expect("no budget, no failure");
        if hash.partitions_spilled > 0 {
            continue;
        }
        let budget = hash.peak_intermediate_bytes;
        let fits = try_execute_with(&plan, &bound, &b.stats_db, &mut scratch, Some(budget));
        assert_eq!(fits, Ok((rows, hash)), "Q{}", wq.id);

        with_algo(&mut plan, JoinAlgo::Merge);
        let (_, merge) = try_execute_with(&plan, &bound, &b.stats_db, &mut scratch, None)
            .expect("no budget, no failure");
        assert_eq!(merge.peak_intermediate_bytes, budget, "same live set");
        match try_execute_with(&plan, &bound, &b.stats_db, &mut scratch, Some(budget)) {
            Err(ExecError::BudgetExceeded {
                peak_bytes,
                budget_bytes,
            }) => {
                assert_eq!(budget_bytes, budget);
                assert!(peak_bytes > budget, "Q{}", wq.id);
            }
            Ok(_) => panic!("Q{}: merge sort pairs escaped the budget", wq.id),
        }
        checked += 1;
    }
    assert!(checked > 0, "no non-spilling join query in the workload");
}

/// Regression for the NaN-poisoning bug class: an estimator that
/// returns a non-finite value on EVERY sub-plan estimate must still
/// produce a complete run whose reports and serialized results render —
/// the old `sort_by(partial_cmp().unwrap())` percentile and the
/// `f64::max` clamp in `q_error` both died or lied here.
#[test]
fn all_nonfinite_run_completes_reporting() {
    let truth = TrueCardService::new();
    let chaos = postgres_chaos(
        1.0,
        vec![FaultClass::Nan, FaultClass::PosInf, FaultClass::NegInf],
    );
    let queries = run_with(&chaos, &truth, &RunOptions::with_threads(2));
    let b = bench();
    assert_eq!(queries.len(), b.stats_wl.queries.len());
    for q in &queries {
        assert!(q.completed(), "Q{} must execute on clamped estimates", q.id);
        // Every sub-plan estimate failed soft, so every Q-Error is
        // excluded rather than silently scored as a 1-row estimate.
        assert!(
            q.q_errors.is_empty(),
            "Q{} scored a poisoned estimate",
            q.id
        );
        assert_eq!(q.excluded_qerrors, q.subplans as u64, "Q{}", q.id);
    }

    let run = MethodRun {
        kind: EstimatorKind::Postgres,
        train_time: Duration::ZERO,
        model_size: 0,
        queries,
    };
    // Aggregation and every renderer must be total: percentiles over the
    // empty Q-Error set are NaN, printed as dashes — never a panic.
    let (q50, _, q99) = cardbench_metrics::percentile_triple(&run.all_q_errors());
    assert!(q50.is_nan() && q99.is_nan());
    let faults = table_faults(std::slice::from_ref(&run), "STATS-CEB");
    assert!(faults.contains("ExclQE"), "{faults}");
    let t7 = cardbench_harness::report::table7(std::slice::from_ref(&run), "STATS-CEB");
    assert!(t7.contains('—'), "{t7}");
    let breakdown =
        cardbench_harness::report::table_time_breakdown(std::slice::from_ref(&run), "STATS-CEB", 3);
    assert!(breakdown.contains("Time breakdown"), "{breakdown}");
    let results = cardbench_harness::RunResults::collect(&[run], &[]);
    let json = results.to_json();
    let back = cardbench_harness::RunResults::from_json(&json).expect("results roundtrip");
    assert_eq!(
        back.summaries[0].excluded_qerrors,
        results.summaries[0].excluded_qerrors
    );
    assert!(back.summaries[0].excluded_qerrors > 0);
}
