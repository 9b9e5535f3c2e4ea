//! Every workload and metric of the benchmark by name, with its unit and
//! direction. `BENCHMARK.json` at the root of the repository lists the
//! same names; a unit test keeps the two in step.

/// `(name, unit, better, bound)`: the four end-to-end metrics, reported
/// for every workload from the untraced run. The bound is the share of
/// the parent's median by which the metric may get worse before whoever
/// gates a change on the benchmark rejects it. One bound serves all
/// five workloads and every hour of the day, so the noisiest sets it:
/// the reference host (2 shared vCPUs) runs a quarter faster or a third
/// slower for seconds to minutes at a time, whole runs included, and
/// ten runs then spread by 0.15 to 0.18 between their quartiles. A
/// gate that is itself rejected when a spread exceeds its bound cannot
/// take less than 0.25; `README.md` has the measurements. `--compare`
/// also marks what is worse by more than the two results' own spread,
/// however far inside the bound.
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput_per_s", "1/s", "higher", 0.25),
    ("latency_ms_p50", "ms", "lower", 0.25),
    ("latency_ms_p95", "ms", "lower", 0.25),
];

/// The five workloads, in the order the one command runs them.
pub const WORKLOADS: [&str; 5] = [
    "ceb_e2e",
    "plan_search",
    "infer_zoo",
    "serve_mix",
    "update_churn",
];

/// The six estimator kinds `infer_zoo` runs, by metric-name segment.
pub const ZOO: [&str; 6] = ["mscn", "lw-nn", "lw-xgb", "bayescard", "deepdb", "flat"];

/// `(name, unit, better)`: the per-layer metrics, reported for every
/// workload from the traced run. A layer a workload does not touch
/// reports 0.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| out.push((name.to_string(), unit, better));
    // Set-up.
    add("datagen.stats_rows_per_s", "1/s", "higher");
    add("workload.gen_queries_per_s", "1/s", "higher");
    add("estimators.train_s", "s", "lower");
    add("sketch.fit_rows_per_s", "1/s", "higher");
    add("serve.start_ms", "ms", "lower");
    // Query binding and plan search.
    add("query.bind_project_us_p50", "us", "lower");
    add("engine.topology_build_us_p50", "us", "lower");
    add("engine.topology_hit_ratio", "ratio", "higher");
    add("engine.optimize_us_p50", "us", "lower");
    add("engine.optimize_share", "ratio", "lower");
    add("engine.topology_share", "ratio", "lower");
    add("metrics.p_error_us_p50", "us", "lower");
    // Execution.
    add("engine.exec_busy_s", "s", "lower");
    add("engine.exec_share", "ratio", "lower");
    add("engine.exec_rows_per_s", "1/s", "higher");
    add("engine.exec_build_rows", "count", "lower");
    add("engine.exec_probe_rows", "count", "lower");
    add("engine.exec_rows_gathered", "count", "lower");
    add("engine.exec_partitions_spilled", "count", "lower");
    add("engine.exec_peak_intermediate_bytes", "bytes", "lower");
    // True cardinalities and the engine's memos.
    add("engine.truecard_subplans_per_s", "1/s", "higher");
    add("engine.truecard_hit_ratio", "ratio", "higher");
    add("engine.filter_cache_hit_ratio", "ratio", "higher");
    add("engine.agg_memo_hit_ratio", "ratio", "higher");
    // Inference.
    for kind in ZOO {
        add(
            &format!("estimators.{kind}.subplans_per_s"),
            "1/s",
            "higher",
        );
        add(&format!("estimators.{kind}.batch_us_p50"), "us", "lower");
        add(&format!("estimators.{kind}.model_bytes"), "bytes", "lower");
    }
    add("estimators.share", "ratio", "lower");
    add("estimators.max_kind_share", "ratio", "lower");
    // Streaming updates and feedback.
    add("sketch.apply_inserts_rows_per_s", "1/s", "higher");
    add("sketch.apply_deletes_rows_per_s", "1/s", "higher");
    add("sketch.estimate_us_p50", "us", "lower");
    add("sketch.share", "ratio", "lower");
    add("feedback.observe_subplans_per_s", "1/s", "higher");
    add("feedback.apply_us_p50", "us", "lower");
    add("feedback.hit_ratio", "ratio", "higher");
    add("feedback.share", "ratio", "lower");
    // The planning pipeline's own glue.
    add("harness.plan_self_us_p50", "us", "lower");
    add("harness.overhead_share", "ratio", "lower");
    add("harness.est_failures", "count", "lower");
    add("harness.fallback_subplans", "count", "lower");
    add("harness.clamped_subplans", "count", "lower");
    // Serving.
    add("serve.plan_us_p50_sequential", "us", "lower");
    add("serve.jobs_per_batch", "ratio", "higher");
    add("serve.dedup_ratio", "ratio", "higher");
    add("serve.rejected", "count", "lower");
    add("serve.retries", "count", "lower");
    add("serve.breaker_shorted", "count", "lower");
    add("serve.watchdog_restarts", "count", "lower");
    // Quality riding beside speed.
    add("metrics.q_error_p50", "ratio", "lower");
    add("metrics.q_error_p95", "ratio", "lower");
    add("metrics.p_error_p90", "ratio", "lower");
    // The recorder itself.
    add("obs.trace_overhead_ratio", "ratio", "lower");
    out
}
