//! Text renderers for the paper's tables and figures.
//!
//! Every renderer accepts *partial* runs: a missing method renders as
//! `—`, a query that produced no executed result renders as
//! `failed(<reason>)` in the fault summary, and a result set without the
//! PostgreSQL baseline degrades to a note instead of panicking. Writes
//! go to an in-memory `String` (infallible), so their results are
//! deliberately discarded.

use std::fmt::Write as _;
use std::time::Duration;

use cardbench_datagen::DatasetProfile;
use cardbench_engine::Database;
use cardbench_estimators::EstimatorKind;
use cardbench_metrics::{pearson, percentile_triple};
use cardbench_workload::Workload;

use crate::endtoend::{MethodRun, QueryRun};

/// Human-friendly duration (µs/ms/s).
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 100.0 {
        format!("{s:.0}s")
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

/// Human-friendly byte count.
pub fn fmt_bytes(b: usize) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KB", b as f64 / (1 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

/// Scientific-ish formatting for cardinalities.
pub fn fmt_card(v: f64) -> String {
    if v >= 1e6 {
        format!("{v:.2e}")
    } else {
        format!("{v:.0}")
    }
}

/// A metric cell: finite values print with three decimals, NaN (an
/// empty or failed aggregate) prints as `—`.
fn fmt_metric(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "—".to_string()
    }
}

/// Table 1: dataset statistics comparison.
pub fn table1(imdb: &DatasetProfile, stats: &DatasetProfile) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 1: Comparison of IMDB and STATS datasets");
    let _ = writeln!(s, "{:<34} {:>14} {:>14}", "Item", imdb.name, stats.name);
    let row = |s: &mut String, item: &str, a: String, b: String| {
        let _ = writeln!(s, "{item:<34} {a:>14} {b:>14}");
    };
    row(
        &mut s,
        "# of tables",
        imdb.table_count.to_string(),
        stats.table_count.to_string(),
    );
    row(
        &mut s,
        "# of n./c. attributes",
        imdb.nc_attr_count.to_string(),
        stats.nc_attr_count.to_string(),
    );
    row(
        &mut s,
        "# of n./c. attributes per table",
        format!("{}-{}", imdb.attrs_per_table_min, imdb.attrs_per_table_max),
        format!(
            "{}-{}",
            stats.attrs_per_table_min, stats.attrs_per_table_max
        ),
    );
    row(
        &mut s,
        "full outer join size",
        format!("{:.1e}", imdb.full_join_size),
        format!("{:.1e}", stats.full_join_size),
    );
    row(
        &mut s,
        "total attribute domain size",
        imdb.total_domain_size.to_string(),
        stats.total_domain_size.to_string(),
    );
    row(
        &mut s,
        "average distribution skewness",
        format!("{:.3}", imdb.avg_skewness),
        format!("{:.3}", stats.avg_skewness),
    );
    row(
        &mut s,
        "average pairwise correlation",
        format!("{:.3}", imdb.avg_abs_correlation),
        format!("{:.3}", stats.avg_abs_correlation),
    );
    row(
        &mut s,
        "join forms",
        imdb.join_forms.clone(),
        stats.join_forms.clone(),
    );
    row(
        &mut s,
        "# of join relations",
        imdb.join_relation_count.to_string(),
        stats.join_relation_count.to_string(),
    );
    s
}

/// Table 2: workload statistics comparison.
pub fn table2(
    db_imdb: &Database,
    imdb: &Workload,
    db_stats: &Database,
    stats: &Workload,
) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 2: Comparison of JOB-LIGHT and STATS-CEB workloads"
    );
    let _ = writeln!(s, "{:<34} {:>16} {:>16}", "Item", imdb.name, stats.name);
    let row = |s: &mut String, item: &str, a: String, b: String| {
        let _ = writeln!(s, "{item:<34} {a:>16} {b:>16}");
    };
    row(
        &mut s,
        "# of queries",
        imdb.queries.len().to_string(),
        stats.queries.len().to_string(),
    );
    let (ilo, ihi) = imdb.table_count_range();
    let (slo, shi) = stats.table_count_range();
    row(
        &mut s,
        "# of joined tables",
        format!("{ilo}-{ihi}"),
        format!("{slo}-{shi}"),
    );
    row(
        &mut s,
        "# of join templates",
        imdb.template_count.to_string(),
        stats.template_count.to_string(),
    );
    let (iplo, iphi) = imdb.predicate_count_range();
    let (splo, sphi) = stats.predicate_count_range();
    row(
        &mut s,
        "# of filtering n./c. predicates",
        format!("{iplo}-{iphi}"),
        format!("{splo}-{sphi}"),
    );
    row(
        &mut s,
        "join type",
        if imdb.has_fkfk(db_imdb) {
            "PK-FK/FK-FK"
        } else {
            "PK-FK"
        }
        .to_string(),
        if stats.has_fkfk(db_stats) {
            "PK-FK/FK-FK"
        } else {
            "PK-FK"
        }
        .to_string(),
    );
    let (iclo, ichi) = imdb.cardinality_range();
    let (sclo, schi) = stats.cardinality_range();
    row(
        &mut s,
        "true cardinality range",
        format!("{} - {}", fmt_card(iclo), fmt_card(ichi)),
        format!("{} - {}", fmt_card(sclo), fmt_card(schi)),
    );
    s
}

/// Locates the PostgreSQL baseline run. `None` when the result set is
/// partial (e.g. a resumed run killed before the baseline finished);
/// renderers then print `—` cells or a note instead of panicking.
pub fn baseline(runs: &[MethodRun]) -> Option<&MethodRun> {
    runs.iter().find(|r| r.kind == EstimatorKind::Postgres)
}

/// Table 3: overall end-to-end performance on both workloads.
pub fn table3(imdb_runs: &[MethodRun], stats_runs: &[MethodRun]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 3: Overall performance of CardEst algorithms");
    let _ = writeln!(
        s,
        "{:<13} {:<12} | {:>10} {:>18} {:>8} | {:>10} {:>18} {:>8}",
        "Category",
        "Method",
        "JL E2E",
        "JL Exec+Plan",
        "JL Impr",
        "SC E2E",
        "SC Exec+Plan",
        "SC Impr"
    );
    let base_i = baseline(imdb_runs).map(MethodRun::e2e_total);
    let base_s = baseline(stats_runs).map(MethodRun::e2e_total);
    let impr = |run: &MethodRun, base: Option<Duration>| match base {
        Some(b) => format!("{:.1}%", run.improvement_over(b)),
        None => "—".to_string(),
    };
    for kind in EstimatorKind::ALL {
        let (Some(ri), Some(rs)) = (
            imdb_runs.iter().find(|r| r.kind == kind),
            stats_runs.iter().find(|r| r.kind == kind),
        ) else {
            continue;
        };
        let _ = writeln!(
            s,
            "{:<13} {:<12} | {:>10} {:>18} {:>8} | {:>10} {:>18} {:>8}",
            kind.class(),
            kind.name(),
            fmt_duration(ri.e2e_total()),
            format!(
                "{} + {}",
                fmt_duration(ri.exec_total()),
                fmt_duration(ri.plan_total())
            ),
            impr(ri, base_i),
            fmt_duration(rs.e2e_total()),
            format!(
                "{} + {}",
                fmt_duration(rs.exec_total()),
                fmt_duration(rs.plan_total())
            ),
            impr(rs, base_s),
        );
    }
    s
}

/// The join-count buckets of paper Table 4.
pub const JOIN_BUCKETS: [(usize, usize, &str); 4] =
    [(2, 3, "2-3"), (4, 4, "4"), (5, 5, "5"), (6, 8, "6-8")];

/// Table 4: end-to-end improvement by number of joined tables
/// (STATS-CEB).
pub fn table4(stats_runs: &[MethodRun]) -> String {
    let shown = [
        EstimatorKind::PessEst,
        EstimatorKind::Mscn,
        EstimatorKind::BayesCard,
        EstimatorKind::DeepDb,
        EstimatorKind::Flat,
        EstimatorKind::TrueCard,
    ];
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 4: E2E improvement by # of joined tables (STATS-CEB)"
    );
    let Some(base) = baseline(stats_runs) else {
        let _ = writeln!(
            s,
            "(PostgreSQL baseline missing — improvements unavailable)"
        );
        return s;
    };
    let _ = write!(s, "{:<9} {:>9}", "# tables", "# queries");
    for k in shown {
        let _ = write!(s, " {:>11}", k.name());
    }
    let _ = writeln!(s);
    for (lo, hi, label) in JOIN_BUCKETS {
        let in_bucket = |q: &&QueryRun| q.completed() && q.n_tables >= lo && q.n_tables <= hi;
        let bucket_secs = |run: &MethodRun| -> f64 {
            let queries = run.queries.iter().filter(in_bucket);
            queries.map(|q| (q.exec + q.plan).as_secs_f64()).sum()
        };
        let base_time = bucket_secs(base);
        let nq = base.queries.iter().filter(in_bucket).count();
        let _ = write!(s, "{label:<9} {nq:>9}");
        for k in shown {
            match stats_runs.iter().find(|r| r.kind == k) {
                Some(run) => {
                    let t = bucket_secs(run);
                    let impr = if base_time > 0.0 {
                        (base_time - t) / base_time * 100.0
                    } else {
                        0.0
                    };
                    let _ = write!(s, " {impr:>10.1}%");
                }
                None => {
                    let _ = write!(s, " {:>11}", "—");
                }
            }
        }
        let _ = writeln!(s);
    }
    s
}

/// Supplement to Table 4 (paper O4): median sub-plan Q-Error per
/// join-count bucket — the estimation-error growth that produces the
/// shrinking improvements.
pub fn table4_qerrors(stats_runs: &[MethodRun]) -> String {
    let shown = [
        EstimatorKind::Postgres,
        EstimatorKind::PessEst,
        EstimatorKind::Mscn,
        EstimatorKind::BayesCard,
        EstimatorKind::DeepDb,
        EstimatorKind::Flat,
    ];
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 4 supplement: median sub-plan Q-Error by # of joined tables"
    );
    let _ = write!(s, "{:<9}", "# tables");
    for k in shown {
        let _ = write!(s, " {:>11}", k.name());
    }
    let _ = writeln!(s);
    for (lo, hi, label) in JOIN_BUCKETS {
        let _ = write!(s, "{label:<9}");
        for k in shown {
            match stats_runs.iter().find(|r| r.kind == k) {
                Some(run) => {
                    let errs: Vec<f64> = run
                        .queries
                        .iter()
                        .filter(|q| q.n_tables >= lo && q.n_tables <= hi)
                        .flat_map(|q| q.q_errors.clone())
                        .collect();
                    let med = cardbench_metrics::percentile(&errs, 0.5);
                    let _ = write!(s, " {:>11}", fmt_metric(med));
                }
                None => {
                    let _ = write!(s, " {:>11}", "—");
                }
            }
        }
        let _ = writeln!(s);
    }
    s
}

/// Table 5: OLTP vs OLAP split on STATS-CEB. Queries at or below the
/// baseline's median execution time form the TP class; the rest AP.
pub fn table5(stats_runs: &[MethodRun]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5: OLTP/OLAP performance on STATS-CEB");
    let Some(base) = baseline(stats_runs) else {
        let _ = writeln!(s, "(PostgreSQL baseline missing — TP/AP split unavailable)");
        return s;
    };
    let mut times: Vec<f64> = base
        .queries
        .iter()
        .filter(|q| q.completed())
        .map(|q| q.exec.as_secs_f64())
        .collect();
    if times.is_empty() {
        let _ = writeln!(
            s,
            "(no completed baseline queries — TP/AP split unavailable)"
        );
        return s;
    }
    times.sort_by(f64::total_cmp);
    let median = times[times.len() / 2];
    let tp_ids: Vec<usize> = base
        .queries
        .iter()
        .filter(|q| q.completed() && q.exec.as_secs_f64() <= median)
        .map(|q| q.id)
        .collect();
    let _ = writeln!(
        s,
        "{:<12} {:>12} {:>20} {:>12} {:>20}",
        "Method", "TP Exec", "TP Plan (share)", "AP Exec", "AP Plan (share)"
    );
    for run in stats_runs {
        let (mut tpe, mut tpp, mut ape, mut app) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for q in run.queries.iter().filter(|q| q.completed()) {
            if tp_ids.contains(&q.id) {
                tpe += q.exec.as_secs_f64();
                tpp += q.plan.as_secs_f64();
            } else {
                ape += q.exec.as_secs_f64();
                app += q.plan.as_secs_f64();
            }
        }
        let share = |p: f64, e: f64| {
            if p + e > 0.0 {
                p / (p + e) * 100.0
            } else {
                0.0
            }
        };
        let _ = writeln!(
            s,
            "{:<12} {:>12} {:>20} {:>12} {:>20}",
            run.kind.name(),
            fmt_duration(Duration::from_secs_f64(tpe)),
            format!(
                "{} ({:.1}%)",
                fmt_duration(Duration::from_secs_f64(tpp)),
                share(tpp, tpe)
            ),
            fmt_duration(Duration::from_secs_f64(ape)),
            format!(
                "{} ({:.2}%)",
                fmt_duration(Duration::from_secs_f64(app)),
                share(app, ape)
            ),
        );
    }
    s
}

/// Table 7: Q-Error vs P-Error distributions, methods sorted by
/// descending execution time, plus the percentile↔time correlations.
pub fn table7(runs: &[MethodRun], workload_name: &str) -> String {
    let mut sorted: Vec<&MethodRun> = runs.iter().collect();
    sorted.sort_by_key(|r| std::cmp::Reverse(r.exec_total()));
    let mut s = String::new();
    let _ = writeln!(s, "Table 7 ({workload_name}): Q-Error vs P-Error");
    let _ = writeln!(
        s,
        "{:<12} {:>10} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "Method", "Exec", "Q50%", "Q90%", "Q99%", "P50%", "P90%", "P99%"
    );
    let mut exec_times = Vec::new();
    let mut q50s = Vec::new();
    let mut q90s = Vec::new();
    let mut p50s = Vec::new();
    let mut p90s = Vec::new();
    for run in &sorted {
        let (q50, q90, q99) = percentile_triple(&run.all_q_errors());
        let (p50, p90, p99) = percentile_triple(&run.all_p_errors());
        let _ = writeln!(
            s,
            "{:<12} {:>10} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
            run.kind.name(),
            fmt_duration(run.exec_total()),
            fmt_metric(q50),
            fmt_metric(q90),
            fmt_metric(q99),
            fmt_metric(p50),
            fmt_metric(p90),
            fmt_metric(p99)
        );
        // Correlations only make sense over finite aggregates; a method
        // with no completed queries would poison every coefficient.
        if [q50, q90, p50, p90].iter().all(|v| v.is_finite()) {
            exec_times.push(run.exec_total().as_secs_f64());
            q50s.push(q50);
            q90s.push(q90);
            p50s.push(p50);
            p90s.push(p90);
        }
    }
    let _ = writeln!(
        s,
        "corr(exec, Q50)={:.3} corr(exec, Q90)={:.3} corr(exec, P50)={:.3} corr(exec, P90)={:.3}",
        pearson(&exec_times, &q50s),
        pearson(&exec_times, &q90s),
        pearson(&exec_times, &p50s),
        pearson(&exec_times, &p90s),
    );
    s
}

/// Operator-counter supplement to Table 3: per-method totals of the
/// executor's operator-level counters, so slow end-to-end times can be
/// attributed to the operator work (builds, probes, gathers, spills) the
/// chosen plans actually performed — the Observation-style analyses the
/// wall-clock numbers alone can't support.
pub fn table_exec_counters(runs: &[MethodRun], workload_name: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 3 supplement ({workload_name}): operator-level execution counters"
    );
    let _ = writeln!(
        s,
        "{:<12} {:>10} | {:>12} {:>12} {:>12} {:>12} {:>7} {:>10}",
        "Method", "Exec", "Intermed", "Build", "Probe", "Gathered", "Spills", "Peak mem"
    );
    for run in runs {
        let t = run.exec_stats_total();
        let _ = writeln!(
            s,
            "{:<12} {:>10} | {:>12} {:>12} {:>12} {:>12} {:>7} {:>10}",
            run.kind.name(),
            fmt_duration(run.exec_total()),
            t.intermediate_rows,
            t.build_rows,
            t.probe_rows,
            t.rows_gathered,
            t.partitions_spilled,
            fmt_bytes(t.peak_intermediate_bytes as usize),
        );
    }
    s
}

/// Fault-tolerance summary: per-method counts of whole-query failures
/// and typed sub-plan estimate failures, clamp interventions, and
/// baseline fallbacks, followed by one `failed(<reason>)` line per
/// failed query. This is the table that makes a chaos or partially
/// crashed run legible.
pub fn table_faults(runs: &[MethodRun], workload_name: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Fault summary ({workload_name})");
    let _ = writeln!(
        s,
        "{:<12} {:>7} {:>7} {:>9} {:>7} {:>9} {:>8} {:>8} {:>9} {:>7}",
        "Method",
        "Queries",
        "Failed",
        "EstFails",
        "Panics",
        "Timeouts",
        "NonFin",
        "Degen",
        "Fallbacks",
        "ExclQE"
    );
    for run in runs {
        let kind_count = |kind: &str| -> usize {
            run.queries
                .iter()
                .flat_map(|q| &q.est_failures)
                .filter(|f| f.error.kind() == kind)
                .count()
        };
        let _ = writeln!(
            s,
            "{:<12} {:>7} {:>7} {:>9} {:>7} {:>9} {:>8} {:>8} {:>9} {:>7}",
            run.kind.name(),
            run.queries.len(),
            run.failed_queries(),
            run.est_failure_total(),
            kind_count("panicked"),
            kind_count("timed_out"),
            kind_count("non_finite"),
            kind_count("degenerate"),
            run.fallback_total(),
            run.excluded_qerror_total(),
        );
    }
    let mut any_failed = false;
    for run in runs {
        for q in run.queries.iter().filter(|q| !q.completed()) {
            if let Some(f) = &q.failure {
                if !any_failed {
                    let _ = writeln!(s, "Failed queries:");
                    any_failed = true;
                }
                let _ = writeln!(s, "  {:<12} Q{:<5} failed({f})", run.kind.name(), q.id);
            }
        }
    }
    if !any_failed {
        let _ = writeln!(s, "All queries executed to completion.");
    }
    s
}

/// Figure 3 data: practicality aspects (inference latency, model size,
/// training time) per method.
pub fn figure3(runs: &[MethodRun], workload_name: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 3 ({workload_name}): practicality aspects");
    let _ = writeln!(
        s,
        "{:<12} {:>16} {:>12} {:>14}",
        "Method", "Avg inference", "Model size", "Training time"
    );
    for run in runs {
        let _ = writeln!(
            s,
            "{:<12} {:>16} {:>12} {:>14}",
            run.kind.name(),
            fmt_duration(run.avg_inference()),
            fmt_bytes(run.model_size),
            fmt_duration(run.train_time),
        );
    }
    s
}

/// Figure 1: the schema join graph in Graphviz DOT form.
pub fn figure1_dot(db: &Database) -> String {
    let mut s = String::from("graph stats_schema {\n");
    for t in db.catalog().tables() {
        let _ = writeln!(s, "  {:?} [shape=box];", t.name());
    }
    for j in db.catalog().joins() {
        let _ = writeln!(
            s,
            "  {:?} -- {:?} [label=\"{}.{} = {}.{} ({:?})\"];",
            j.left_table,
            j.right_table,
            j.left_table,
            j.left_column,
            j.right_table,
            j.right_column,
            j.kind
        );
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::QueryFailure;

    fn fake_run(kind: EstimatorKind, exec_ms: u64) -> MethodRun {
        let queries = (1..=4)
            .map(|id| QueryRun {
                id,
                n_tables: id + 1,
                true_card: 100.0 * id as f64,
                exec: Duration::from_millis(exec_ms * id as u64),
                plan: Duration::from_micros(50),
                subplans: 3,
                p_error: 1.0 + id as f64 / 10.0,
                q_errors: vec![1.0, 2.0 * id as f64],
                sub_est_cards: vec![100.0 * id as f64, 50.0],
                sub_true_cards: vec![100.0 * id as f64, 100.0],
                result_rows: 100 * id as u64,
                exec_stats: cardbench_engine::ExecStats {
                    output_rows: 100 * id as u64,
                    intermediate_rows: 250 * id as u64,
                    build_rows: 120 * id as u64,
                    probe_rows: 130 * id as u64,
                    rows_gathered: 300 * id as u64,
                    partitions_spilled: id as u64 - 1,
                    peak_intermediate_bytes: 2048 * id as u64,
                },
                est_failures: vec![],
                clamped_subplans: 0,
                fallback_subplans: 0,
                excluded_qerrors: 0,
                failure: None,
            })
            .collect();
        MethodRun {
            kind,
            train_time: Duration::from_millis(3),
            model_size: 2048,
            queries,
        }
    }

    fn fake_runs() -> Vec<MethodRun> {
        vec![
            fake_run(EstimatorKind::Postgres, 10),
            fake_run(EstimatorKind::TrueCard, 5),
            fake_run(EstimatorKind::PessEst, 8),
            fake_run(EstimatorKind::Mscn, 9),
            fake_run(EstimatorKind::BayesCard, 6),
            fake_run(EstimatorKind::DeepDb, 6),
            fake_run(EstimatorKind::Flat, 6),
        ]
    }

    #[test]
    fn table3_reports_improvements() {
        let runs = fake_runs();
        let s = table3(&runs, &runs);
        assert!(s.contains("PostgreSQL"));
        assert!(s.contains("TrueCard"));
        // TrueCard at half the baseline exec shows ~50% improvement.
        let tc_line = s.lines().find(|l| l.contains("TrueCard")).unwrap();
        assert!(
            tc_line.contains("49.") || tc_line.contains("50."),
            "{tc_line}"
        );
    }

    #[test]
    fn table3_without_baseline_prints_dashes() {
        let runs = vec![fake_run(EstimatorKind::TrueCard, 5)];
        let s = table3(&runs, &runs);
        let tc_line = s.lines().find(|l| l.contains("TrueCard")).unwrap();
        assert!(tc_line.contains('—'), "{tc_line}");
    }

    #[test]
    fn table4_buckets_cover_all_methods() {
        let s = table4(&fake_runs());
        for name in ["PessEst", "MSCN", "BayesCard", "DeepDB", "FLAT", "TrueCard"] {
            assert!(
                s.contains(name),
                "missing {name}:
{s}"
            );
        }
        assert!(s.contains("2-3") && s.contains("6-8"));
    }

    #[test]
    fn table4_qerror_supplement_renders() {
        let s = table4_qerrors(&fake_runs());
        assert!(s.contains("Q-Error"));
        assert!(s.lines().count() >= 6);
    }

    #[test]
    fn table5_splits_tp_ap() {
        let s = table5(&fake_runs());
        assert!(s.contains("TP Exec"));
        assert!(s.contains("AP Plan"));
        assert!(s.lines().count() >= 9);
    }

    #[test]
    fn tables_survive_missing_baseline_and_empty_runs() {
        // No PostgreSQL run at all.
        let runs = vec![fake_run(EstimatorKind::TrueCard, 5)];
        assert!(table4(&runs).contains("baseline missing"));
        assert!(table5(&runs).contains("baseline missing"));
        // Baseline present but every query failed.
        let mut failed = fake_run(EstimatorKind::Postgres, 10);
        for q in &mut failed.queries {
            q.failure = Some(QueryFailure::Bind {
                message: "x".into(),
            });
        }
        let runs = vec![failed];
        assert!(table5(&runs).contains("no completed baseline queries"));
        let t7 = table7(&runs, "STATS-CEB");
        assert!(t7.contains("corr(exec"), "{t7}");
        // P-percentiles of an all-failed run render as dashes.
        assert!(t7.contains('—'), "{t7}");
    }

    #[test]
    fn fault_table_lists_failed_queries() {
        let mut run = fake_run(EstimatorKind::Postgres, 10);
        run.queries[2].failure = Some(QueryFailure::ExecBudget {
            peak_bytes: 4096,
            budget_bytes: 1024,
        });
        let s = table_faults(&[run], "STATS-CEB");
        assert!(s.contains("Fault summary"), "{s}");
        assert!(
            s.contains("failed(memory budget exceeded (4096B > 1024B))"),
            "{s}"
        );
        let clean = table_faults(&fake_runs(), "STATS-CEB");
        assert!(clean.contains("All queries executed to completion."));
    }

    #[test]
    fn table7_sorted_by_exec_desc() {
        let s = table7(&fake_runs(), "STATS-CEB");
        let pg_pos = s.find("PostgreSQL").unwrap();
        let tc_pos = s.find("TrueCard").unwrap();
        // PostgreSQL (slowest fake) must be listed before TrueCard.
        assert!(pg_pos < tc_pos, "{s}");
        assert!(s.contains("corr(exec"));
    }

    #[test]
    fn exec_counters_table_totals() {
        let s = table_exec_counters(&fake_runs(), "STATS-CEB");
        assert!(s.contains("operator-level execution counters"), "{s}");
        // Sums over the four fake queries: 250*(1+2+3+4) intermediates,
        // 120*10 builds, (1-1)+(2-1)+(3-1)+(4-1)=6 spills, peak 8KB.
        let pg = s.lines().find(|l| l.starts_with("PostgreSQL")).unwrap();
        assert!(pg.contains("2500"), "{pg}");
        assert!(pg.contains("1200"), "{pg}");
        assert!(pg.contains(" 6 "), "{pg}");
        assert!(pg.contains("8.0KB"), "{pg}");
    }

    #[test]
    fn fault_table_reports_excluded_qerrors() {
        let mut run = fake_run(EstimatorKind::Postgres, 10);
        run.queries[1].excluded_qerrors = 3;
        let s = table_faults(&[run], "STATS-CEB");
        assert!(s.contains("ExclQE"), "{s}");
        let pg = s.lines().find(|l| l.starts_with("PostgreSQL")).unwrap();
        assert!(pg.trim_end().ends_with('3'), "{pg}");
    }

    #[test]
    fn figure3_lists_practicality() {
        let s = figure3(&fake_runs(), "STATS-CEB");
        assert!(s.contains("Model size"));
        assert!(s.contains("2.0KB"));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(5)), "5.0µs");
        assert_eq!(fmt_duration(Duration::from_millis(12)), "12.00ms");
        assert_eq!(fmt_duration(Duration::from_secs(3)), "3.00s");
        assert_eq!(fmt_duration(Duration::from_secs(500)), "500s");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(100), "100B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(3 << 20), "3.0MB");
    }

    #[test]
    fn card_formatting() {
        assert_eq!(fmt_card(200.0), "200");
        assert_eq!(fmt_card(2e10), "2.00e10");
    }
}
