//! Programmatic checks of the paper's observations (O1–O14) against a
//! finished run's results — the "shape" assertions of EXPERIMENTS.md as
//! executable checks. Each check states the paper's claim, evaluates it
//! on the measured runs, and reports pass/fail with the numbers.
//!
//! A check computes no statistic of its own: it reads the cells that
//! [`crate::report`] prints — Table 3's E2E and Impr columns (O1–O3),
//! the Table 4 supplement (O4), Table 5's plan shares (O7), Figure 3's
//! training times (O8) and Table 7's correlations (O14) — so a verdict
//! is always about a number a table shows.

use std::fmt::Write as _;

use cardbench_estimators::EstimatorKind::{BayesCard, DeepDb, Flat, NeuroCardE, UniSample};

use crate::endtoend::MethodRun;
use crate::report::{
    baseline, bucket_q_error_medians, error_table, fmt_duration, method, tp_ap_rows, JOIN_BUCKETS,
};

/// Outcome of one observation check.
#[derive(Debug, Clone, PartialEq)]
pub struct ObservationCheck {
    /// Paper observation id (e.g. "O1").
    pub id: &'static str,
    /// The claim being checked.
    pub claim: &'static str,
    /// Whether the measured run reproduces it.
    pub pass: bool,
    /// The numbers behind the verdict.
    pub evidence: String,
}

/// Runs every check over `[JOB-LIGHT, STATS-CEB]` runs.
pub fn check_observations(runs: &[Vec<MethodRun>; 2]) -> Vec<ObservationCheck> {
    let mut out = Vec::new();
    let [jl, sc] = runs;

    // O1: data-driven PGMs beat the PostgreSQL baseline on STATS-CEB;
    // plain histogram/sampling traditional methods do not beat the best
    // data-driven method. Table 3's SC E2E cells.
    if let (Some(pg), Some(deep), Some(flat), Some(uni)) = (
        baseline(sc),
        method(sc, DeepDb),
        method(sc, Flat),
        method(sc, UniSample),
    ) {
        let [pg, deep, flat, uni] = [pg, deep, flat, uni].map(MethodRun::e2e_total);
        let best_pgm = deep.min(flat);
        out.push(ObservationCheck {
            id: "O1",
            claim: "data-driven PGM methods improve over PostgreSQL; naive sampling does not beat them",
            pass: best_pgm < pg && uni > best_pgm,
            evidence: format!(
                "SC E2E: PG {}, DeepDB {}, FLAT {}, UniSample {}",
                fmt_duration(pg),
                fmt_duration(deep),
                fmt_duration(flat),
                fmt_duration(uni)
            ),
        });
    }

    // O2: the spread between methods is larger on STATS-CEB than on
    // JOB-LIGHT: the range of Table 3's Impr column on each workload.
    let spread = |runs: &[MethodRun]| -> Option<f64> {
        let base = baseline(runs)?.e2e_total();
        let impr = runs
            .iter()
            .filter(|r| r.kind != NeuroCardE && r.kind != UniSample)
            .map(|r| r.improvement_over(base));
        let (lo, hi) = impr.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
        Some(hi - lo)
    };
    if let (Some(s_sc), Some(s_jl)) = (spread(sc), spread(jl)) {
        out.push(ObservationCheck {
            id: "O2",
            claim: "STATS-CEB separates methods more than JOB-LIGHT",
            pass: s_sc > s_jl * 0.8, // allow noise; the paper's gap is large
            evidence: format!(
                "Impr range STATS-CEB {s_sc:.1} points vs JOB-LIGHT {s_jl:.1} points"
            ),
        });
    }

    // O3: NeuroCard's full-join modelling does not beat the baseline on
    // STATS-CEB while the divide-and-conquer data-driven methods do.
    // Table 3's SC E2E cells.
    if let (Some(pg), Some(nc), Some(bc)) =
        (baseline(sc), method(sc, NeuroCardE), method(sc, BayesCard))
    {
        let [pg, nc, bc] = [pg, nc, bc].map(MethodRun::e2e_total);
        out.push(ObservationCheck {
            id: "O3",
            claim: "one-model-on-full-join (NeuroCard^E) loses on STATS while per-table models win",
            pass: nc > pg && bc < pg,
            evidence: format!(
                "SC E2E: NeuroCard^E {} vs PG {} vs BayesCard {}",
                fmt_duration(nc),
                fmt_duration(pg),
                fmt_duration(bc)
            ),
        });
    }

    // O4: estimation error grows with join count for the data-driven
    // methods: the Table 4 supplement's first and last bucket.
    let (small, large) = (JOIN_BUCKETS[0].2, JOIN_BUCKETS[JOIN_BUCKETS.len() - 1].2);
    for kind in [BayesCard, DeepDb, Flat] {
        let Some(r) = method(sc, kind) else { continue };
        let cells = bucket_q_error_medians(r);
        let (q_small, q_large) = (cells[0], cells[cells.len() - 1]);
        if q_small.is_finite() && q_large.is_finite() {
            out.push(ObservationCheck {
                id: "O4",
                claim: "estimation error grows with the number of joined tables",
                pass: q_large >= q_small,
                evidence: format!(
                    "{}: median sub-plan Q-Error {small} tables {q_small:.3}, {large} tables {q_large:.3}",
                    kind.name()
                ),
            });
        }
    }

    // O7: planning share is larger on short (TP) queries than long (AP)
    // ones for the slow-inference methods: Table 5's NeuroCard^E row.
    if let Some(nc) = tp_ap_rows(sc)
        .ok()
        .and_then(|rows| rows.into_iter().find(|r| r.kind == NeuroCardE))
    {
        let (tp, ap) = (nc.tp_plan_share(), nc.ap_plan_share());
        out.push(ObservationCheck {
            id: "O7",
            claim: "inference latency dominates short (TP) queries more than long (AP) ones",
            pass: tp > ap,
            evidence: format!("NeuroCard^E plan share: TP {tp:.1}% vs AP {ap:.2}%"),
        });
    }

    // O8/Figure 3: BayesCard trains faster and is smaller than the SPN
    // family, which in turn undercuts NeuroCard's training cost.
    if let (Some(bc), Some(deep), Some(nc)) = (
        method(sc, BayesCard),
        method(sc, DeepDb),
        method(sc, NeuroCardE),
    ) {
        let [bc, deep, nc] = [bc, deep, nc].map(|r| r.train_time);
        out.push(ObservationCheck {
            id: "O8",
            claim: "training cost: BayesCard < DeepDB < NeuroCard^E",
            pass: bc < deep && deep < nc,
            evidence: format!(
                "train: BayesCard {}, DeepDB {}, NeuroCard^E {}",
                fmt_duration(bc),
                fmt_duration(deep),
                fmt_duration(nc)
            ),
        });
    }

    // O14: across methods, P-Error medians correlate with execution time
    // at least as strongly as Q-Error medians: Table 7's correlations.
    if sc.len() >= 4 {
        let t = error_table(sc);
        out.push(ObservationCheck {
            id: "O14",
            claim: "P-Error tracks execution time at least as well as Q-Error",
            pass: t.corr_p50 >= t.corr_q50 - 0.1,
            evidence: format!(
                "corr(exec, P50)={:.3} vs corr(exec, Q50)={:.3}",
                t.corr_p50, t.corr_q50
            ),
        });
    }
    out
}

/// Renders the checks as a report.
pub fn render_checks(checks: &[ObservationCheck]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Observation checks (paper O1-O14, shape assertions)");
    for c in checks {
        let _ = writeln!(
            s,
            "[{}] {:<4} {}\n       {}",
            if c.pass { "PASS" } else { "FAIL" },
            c.id,
            c.claim,
            c.evidence
        );
    }
    let passed = checks.iter().filter(|c| c.pass).count();
    let _ = writeln!(s, "{passed}/{} checks pass", checks.len());
    s
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use cardbench_estimators::EstimatorKind::{self, Postgres};

    use super::*;
    use crate::checkpoint::{results_from_json, results_to_json};
    use crate::endtoend::QueryRun;
    use crate::report;

    fn query(id: usize, n_tables: usize, exec: f64, p_error: f64, q_error: f64) -> QueryRun {
        QueryRun {
            id,
            n_tables,
            true_card: 10.0,
            exec: Duration::from_secs_f64(exec),
            plan: Duration::from_millis(5),
            subplans: 1,
            p_error,
            q_errors: vec![q_error],
            excluded_qerrors: 0,
            sub_est_cards: vec![10.0],
            sub_true_cards: vec![10.0],
            result_rows: 10,
            exec_stats: Default::default(),
            est_failures: Vec::new(),
            clamped_subplans: 0,
            fallback_subplans: 0,
            failure: None,
        }
    }

    /// A small (2-table) and a large (7-table) query, `exec` seconds of
    /// execution between them.
    fn run(kind: EstimatorKind, exec: f64, train: f64) -> MethodRun {
        MethodRun {
            kind,
            train_time: Duration::from_secs_f64(train),
            model_size: 100,
            queries: vec![
                query(1, 2, exec / 2.0, 1.0, 1.5),
                query(2, 7, exec / 2.0, 1.5, 8.0),
            ],
        }
    }

    /// Both workloads, each method's exec time given by `exec(workload)`.
    fn runs(exec: impl Fn(usize, EstimatorKind) -> f64) -> [Vec<MethodRun>; 2] {
        let methods = [
            (Postgres, 0.001),
            (DeepDb, 0.5),
            (Flat, 0.6),
            (BayesCard, 0.01),
            (UniSample, 0.0),
            (NeuroCardE, 5.0),
        ];
        [0, 1].map(|wl| {
            methods
                .iter()
                .map(|&(kind, train)| run(kind, exec(wl, kind), train))
                .collect()
        })
    }

    fn paper_shaped() -> [Vec<MethodRun>; 2] {
        runs(|wl, kind| {
            let spread = [0.1, 1.0][wl];
            10.0 + spread
                * match kind {
                    DeepDb => -3.0,
                    Flat => -3.5,
                    BayesCard => -2.0,
                    UniSample => 2.0,
                    NeuroCardE => 5.0,
                    _ => 0.0,
                }
        })
    }

    #[test]
    fn checks_pass_on_paper_shaped_results() {
        let checks = check_observations(&paper_shaped());
        assert!(!checks.is_empty());
        for c in &checks {
            assert!(c.pass, "{} failed: {}", c.id, c.evidence);
        }
        let report = render_checks(&checks);
        assert!(report.contains("PASS"));
    }

    #[test]
    fn checks_fail_on_inverted_results() {
        let runs = runs(|_, kind| match kind {
            Postgres => 5.0,
            UniSample | NeuroCardE => 1.0,
            _ => 10.0,
        });
        let checks = check_observations(&runs);
        let o1 = checks.iter().find(|c| c.id == "O1").unwrap();
        assert!(!o1.pass);
    }

    #[test]
    fn checks_on_a_read_back_results_file_equal_the_in_memory_checks() {
        let runs = paper_shaped();
        let back = results_from_json(&results_to_json(&runs)).expect("results file parses");
        assert_eq!(check_observations(&back), check_observations(&runs));
    }

    /// A results file whose NeuroCard^E runs hold no queries renders
    /// every table and runs every check without panicking.
    #[test]
    fn an_empty_run_in_a_results_file_renders_and_checks() {
        let mut runs = paper_shaped();
        for wl in &mut runs {
            for r in wl.iter_mut().filter(|r| r.kind == NeuroCardE) {
                r.queries.clear();
            }
        }
        let json = results_to_json(&runs);
        assert!(json.contains(r#""queries":[]"#), "{json}");
        let [jl, sc] = results_from_json(&json).expect("results file parses");
        let texts = [
            report::table3(&jl, &sc),
            report::table4(&sc),
            report::table4_qerrors(&sc),
            report::table5(&sc),
            report::table7(&sc, "STATS-CEB"),
            report::table_exec_counters(&sc, "STATS-CEB"),
            report::table_faults(&sc, "STATS-CEB"),
            report::figure3(&sc, "STATS-CEB"),
        ];
        // Tables 5 and 7 list the empty run; its aggregates print `—`.
        for t in [&texts[3], &texts[4]] {
            assert!(t.contains("NeuroCard^E"), "{t}");
        }
        let checks = check_observations(&[jl, sc]);
        let o7 = checks.iter().find(|c| c.id == "O7").expect("O7 runs");
        assert!(!o7.pass, "{}", o7.evidence);
    }
}
