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
use cardbench_metrics::{pearson, percentile, percentile_triple};
use cardbench_workload::Workload;

use crate::endtoend::{MethodRun, QueryRun};
use crate::pass;

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
    let mut row = |item: &str, cell: fn(&DatasetProfile) -> String| {
        let _ = writeln!(s, "{item:<34} {:>14} {:>14}", cell(imdb), cell(stats));
    };
    row("# of tables", |p| p.table_count.to_string());
    row("# of n./c. attributes", |p| p.nc_attr_count.to_string());
    row("# of n./c. attributes per table", |p| {
        format!("{}-{}", p.attrs_per_table_min, p.attrs_per_table_max)
    });
    row("full outer join size", |p| {
        format!("{:.1e}", p.full_join_size)
    });
    row("total attribute domain size", |p| {
        p.total_domain_size.to_string()
    });
    row("average distribution skewness", |p| {
        format!("{:.3}", p.avg_skewness)
    });
    row("average pairwise correlation", |p| {
        format!("{:.3}", p.avg_abs_correlation)
    });
    row("join forms", |p| p.join_forms.clone());
    row("# of join relations", |p| p.join_relation_count.to_string());
    s
}

/// Table 2: workload statistics comparison.
pub fn table2(
    db_imdb: &Database,
    imdb: &Workload,
    db_stats: &Database,
    stats: &Workload,
) -> String {
    fn range((lo, hi): (usize, usize)) -> String {
        format!("{lo}-{hi}")
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table 2: Comparison of JOB-LIGHT and STATS-CEB workloads"
    );
    let _ = writeln!(s, "{:<34} {:>16} {:>16}", "Item", imdb.name, stats.name);
    let mut row = |item: &str, cell: fn(&Database, &Workload) -> String| {
        let (a, b) = (cell(db_imdb, imdb), cell(db_stats, stats));
        let _ = writeln!(s, "{item:<34} {a:>16} {b:>16}");
    };
    row("# of queries", |_, wl| wl.queries.len().to_string());
    row("# of joined tables", |_, wl| range(wl.table_count_range()));
    row("# of join templates", |_, wl| wl.template_count.to_string());
    row("# of filtering n./c. predicates", |_, wl| {
        range(wl.predicate_count_range())
    });
    row("join type", |db, wl| {
        let fkfk = wl.has_fkfk(db);
        (if fkfk { "PK-FK/FK-FK" } else { "PK-FK" }).to_string()
    });
    row("true cardinality range", |_, wl| {
        let (lo, hi) = wl.cardinality_range();
        format!("{} - {}", fmt_card(lo), fmt_card(hi))
    });
    s
}

/// The run of `kind`, if the result set holds one.
pub fn method(runs: &[MethodRun], kind: EstimatorKind) -> Option<&MethodRun> {
    runs.iter().find(|r| r.kind == kind)
}

/// Locates the PostgreSQL baseline run. `None` when the result set is
/// partial (e.g. a resumed run killed before the baseline finished);
/// renderers then print `—` cells or a note instead of panicking.
pub fn baseline(runs: &[MethodRun]) -> Option<&MethodRun> {
    method(runs, EstimatorKind::Postgres)
}

/// Table 3: overall end-to-end performance on both workloads. The E2E
/// and Impr cells are [`MethodRun::e2e_total`] and
/// [`MethodRun::improvement_over`] the baseline's; O1–O3 read them.
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
        let (Some(ri), Some(rs)) = (method(imdb_runs, kind), method(stats_runs, kind)) else {
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

/// The queries of `run` whose join count falls in the bucket `lo..=hi`.
fn in_bucket(run: &MethodRun, lo: usize, hi: usize) -> impl Iterator<Item = &QueryRun> {
    run.queries
        .iter()
        .filter(move |q| (lo..=hi).contains(&q.n_tables))
}

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
        let completed = |run| in_bucket(run, lo, hi).filter(|q| q.completed());
        let base_time = pass::e2e(completed(base));
        let _ = write!(s, "{label:<9} {:>9}", completed(base).count());
        for k in shown {
            match method(stats_runs, k) {
                Some(run) => {
                    let impr = pass::improvement(pass::e2e(completed(run)), base_time);
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

/// The Table 4 supplement's cells for one method: per [`JOIN_BUCKETS`]
/// bucket, the median of every sub-plan Q-Error pooled over the bucket's
/// queries (NaN for an empty bucket). O4 reads the first and last.
pub fn bucket_q_error_medians(run: &MethodRun) -> [f64; JOIN_BUCKETS.len()] {
    JOIN_BUCKETS.map(|(lo, hi, _)| percentile(&pass::q_errors(in_bucket(run, lo, hi)), 0.5))
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
    let cells = shown.map(|k| method(stats_runs, k).map(bucket_q_error_medians));
    for (b, (_, _, label)) in JOIN_BUCKETS.iter().enumerate() {
        let _ = write!(s, "{label:<9}");
        for cell in &cells {
            let text = cell.map_or("—".to_string(), |c| fmt_metric(c[b]));
            let _ = write!(s, " {text:>11}");
        }
        let _ = writeln!(s);
    }
    s
}

/// One row of Table 5: a method's completed queries split into the TP
/// class — the queries the PostgreSQL baseline completed at or below its
/// median execution time — and the AP class, the rest.
#[derive(Debug, Clone)]
pub struct TpApRow {
    /// Which estimator.
    pub kind: EstimatorKind,
    /// Execution time of the TP class.
    pub tp_exec: Duration,
    /// Planning time of the TP class.
    pub tp_plan: Duration,
    /// Execution time of the AP class.
    pub ap_exec: Duration,
    /// Planning time of the AP class.
    pub ap_plan: Duration,
}

impl TpApRow {
    /// Planning's share of the TP class's end-to-end time, in percent.
    pub fn tp_plan_share(&self) -> f64 {
        plan_share(self.tp_plan, self.tp_exec)
    }

    /// Planning's share of the AP class's end-to-end time, in percent.
    pub fn ap_plan_share(&self) -> f64 {
        plan_share(self.ap_plan, self.ap_exec)
    }
}

fn plan_share(plan: Duration, exec: Duration) -> f64 {
    let (p, e) = (plan.as_secs_f64(), exec.as_secs_f64());
    if p + e > 0.0 {
        p / (p + e) * 100.0
    } else {
        0.0
    }
}

/// Table 5's rows, one per run in `stats_runs`. `Err` is the note the
/// table prints instead when the split is unavailable. O7 reads the
/// NeuroCard^E row.
pub fn tp_ap_rows(stats_runs: &[MethodRun]) -> Result<Vec<TpApRow>, &'static str> {
    let base = baseline(stats_runs).ok_or("PostgreSQL baseline missing")?;
    let mut times: Vec<f64> = base
        .queries
        .iter()
        .filter(|q| q.completed())
        .map(|q| q.exec.as_secs_f64())
        .collect();
    if times.is_empty() {
        return Err("no completed baseline queries");
    }
    times.sort_by(f64::total_cmp);
    let median = times[times.len() / 2];
    let tp_ids: Vec<usize> = base
        .queries
        .iter()
        .filter(|q| q.completed() && q.exec.as_secs_f64() <= median)
        .map(|q| q.id)
        .collect();
    let rows = stats_runs.iter().map(|run| {
        let (tp, ap): (Vec<&QueryRun>, Vec<&QueryRun>) = run
            .queries
            .iter()
            .filter(|q| q.completed())
            .partition(|q| tp_ids.contains(&q.id));
        TpApRow {
            kind: run.kind,
            tp_exec: pass::exec(tp.iter().copied()),
            tp_plan: pass::plan(tp.iter().copied()),
            ap_exec: pass::exec(ap.iter().copied()),
            ap_plan: pass::plan(ap.iter().copied()),
        }
    });
    Ok(rows.collect())
}

/// Table 5: OLTP vs OLAP split on STATS-CEB ([`tp_ap_rows`]).
pub fn table5(stats_runs: &[MethodRun]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5: OLTP/OLAP performance on STATS-CEB");
    let rows = match tp_ap_rows(stats_runs) {
        Ok(rows) => rows,
        Err(note) => {
            let _ = writeln!(s, "({note} — TP/AP split unavailable)");
            return s;
        }
    };
    let _ = writeln!(
        s,
        "{:<12} {:>12} {:>20} {:>12} {:>20}",
        "Method", "TP Exec", "TP Plan (share)", "AP Exec", "AP Plan (share)"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<12} {:>12} {:>20} {:>12} {:>20}",
            r.kind.name(),
            fmt_duration(r.tp_exec),
            format!("{} ({:.1}%)", fmt_duration(r.tp_plan), r.tp_plan_share()),
            fmt_duration(r.ap_exec),
            format!("{} ({:.2}%)", fmt_duration(r.ap_plan), r.ap_plan_share()),
        );
    }
    s
}

/// One row of Table 7.
#[derive(Debug, Clone)]
pub struct ErrorRow {
    /// Which estimator.
    pub kind: EstimatorKind,
    /// Total execution time.
    pub exec: Duration,
    /// Sub-plan Q-Error 50/90/99th percentiles.
    pub q: (f64, f64, f64),
    /// P-Error 50/90/99th percentiles over completed queries.
    pub p: (f64, f64, f64),
}

/// Table 7's numbers: one row per method by descending execution time,
/// and the Pearson correlation of execution time with each of Q50, Q90,
/// P50 and P90 across the methods. O14 reads the correlations.
#[derive(Debug, Clone)]
pub struct ErrorTable {
    /// The rows, slowest execution first.
    pub rows: Vec<ErrorRow>,
    /// corr(exec, Q50).
    pub corr_q50: f64,
    /// corr(exec, Q90).
    pub corr_q90: f64,
    /// corr(exec, P50).
    pub corr_p50: f64,
    /// corr(exec, P90).
    pub corr_p90: f64,
}

/// Computes [`ErrorTable`] over `runs`.
pub fn error_table(runs: &[MethodRun]) -> ErrorTable {
    let mut rows: Vec<ErrorRow> = runs
        .iter()
        .map(|run| ErrorRow {
            kind: run.kind,
            exec: run.exec_total(),
            q: percentile_triple(&run.all_q_errors()),
            p: percentile_triple(&run.all_p_errors()),
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.exec));
    // Correlations only make sense over finite aggregates; a method with
    // no completed queries would poison every coefficient.
    let finite: Vec<&ErrorRow> = rows
        .iter()
        .filter(|r| [r.q.0, r.q.1, r.p.0, r.p.1].iter().all(|v| v.is_finite()))
        .collect();
    let exec: Vec<f64> = finite.iter().map(|r| r.exec.as_secs_f64()).collect();
    let corr = |cell: fn(&ErrorRow) -> f64| {
        let ys: Vec<f64> = finite.iter().map(|r| cell(r)).collect();
        pearson(&exec, &ys)
    };
    ErrorTable {
        corr_q50: corr(|r| r.q.0),
        corr_q90: corr(|r| r.q.1),
        corr_p50: corr(|r| r.p.0),
        corr_p90: corr(|r| r.p.1),
        rows,
    }
}

/// Table 7: Q-Error vs P-Error distributions, methods sorted by
/// descending execution time, plus the percentile↔time correlations
/// ([`error_table`]).
pub fn table7(runs: &[MethodRun], workload_name: &str) -> String {
    let t = error_table(runs);
    let mut s = String::new();
    let _ = writeln!(s, "Table 7 ({workload_name}): Q-Error vs P-Error");
    let _ = writeln!(
        s,
        "{:<12} {:>10} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
        "Method", "Exec", "Q50%", "Q90%", "Q99%", "P50%", "P90%", "P99%"
    );
    for r in &t.rows {
        let _ = writeln!(
            s,
            "{:<12} {:>10} | {:>9} {:>9} {:>9} | {:>9} {:>9} {:>9}",
            r.kind.name(),
            fmt_duration(r.exec),
            fmt_metric(r.q.0),
            fmt_metric(r.q.1),
            fmt_metric(r.q.2),
            fmt_metric(r.p.0),
            fmt_metric(r.p.1),
            fmt_metric(r.p.2)
        );
    }
    let _ = writeln!(
        s,
        "corr(exec, Q50)={:.3} corr(exec, Q90)={:.3} corr(exec, P50)={:.3} corr(exec, P90)={:.3}",
        t.corr_q50, t.corr_q90, t.corr_p50, t.corr_p90,
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
                // Errors depend on the method's execution time, neither
                // linearly nor monotonically, so Table 7's correlations
                // are neither 0 nor 1.
                p_error: 1.0 + id as f64 * (exec_ms as f64).sqrt() / 10.0,
                q_errors: vec![
                    1.0 + (exec_ms % 3) as f64,
                    2.0 * id as f64 * (exec_ms + 20 * (exec_ms % 2)) as f64,
                ],
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

    /// A fixed Table 6 input: two measured updates and two typed skips.
    fn fake_update_rows() -> Vec<crate::update_exp::UpdateRow> {
        use crate::update_exp::{UpdateResult, UpdateRow};
        let measured = |kind, update_us: u64, fresh_ms: u64, updated_ms: u64| UpdateRow {
            kind,
            outcome: Ok(UpdateResult {
                update_time: Duration::from_micros(update_us),
                e2e_fresh: Duration::from_millis(fresh_ms),
                e2e_updated: Duration::from_millis(updated_ms),
            }),
        };
        let skipped = |kind, reason: &str| UpdateRow {
            kind,
            outcome: Err(reason.to_string()),
        };
        vec![
            skipped(EstimatorKind::Postgres, "rebuilds from data"),
            measured(EstimatorKind::BayesCard, 850, 120, 131),
            skipped(EstimatorKind::Mscn, "query-driven method retrains"),
            measured(EstimatorKind::Sketch, 2_400_000, 95, 97),
        ]
    }

    /// FNV digest of every run renderer's text over [`fake_runs`], and
    /// of Table 6 over [`fake_update_rows`]: a refactor of how a table
    /// computes its numbers must print the same bytes.
    #[test]
    fn renderer_output_is_pinned() {
        use cardbench_support::hash;
        let runs = fake_runs();
        let texts = [
            crate::update_exp::table6(&fake_update_rows()),
            table3(&runs, &runs),
            table4(&runs),
            table4_qerrors(&runs),
            table5(&runs),
            table7(&runs, "STATS-CEB"),
            table_exec_counters(&runs, "STATS-CEB"),
            table_faults(&runs, "STATS-CEB"),
            figure3(&runs, "STATS-CEB"),
        ];
        let digest = texts
            .iter()
            .fold(hash::OFFSET, |h, t| hash::bytes(h, t.as_bytes()));
        assert_eq!(digest, 16527132550081657170, "{}", texts.concat());
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
