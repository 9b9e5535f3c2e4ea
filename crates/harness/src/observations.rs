//! Programmatic checks of the paper's observations (O1–O14) against a
//! finished run's results — the "shape" assertions of EXPERIMENTS.md as
//! executable checks. Each check states the paper's claim, evaluates it
//! on the measured runs, and reports pass/fail with the numbers.

use std::fmt::Write as _;

use cardbench_estimators::EstimatorKind::{
    self, BayesCard, DeepDb, Flat, NeuroCardE, Postgres, UniSample,
};
use cardbench_metrics::{percentile, percentile_triple, spearman};

use crate::endtoend::MethodRun;

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

fn find(runs: &[MethodRun], kind: EstimatorKind) -> Option<&MethodRun> {
    runs.iter().find(|r| r.kind == kind)
}

/// End-to-end seconds: execution plus planning.
fn e2e(r: &MethodRun) -> f64 {
    r.exec_total().as_secs_f64() + r.plan_total().as_secs_f64()
}

/// Runs every check over `[JOB-LIGHT, STATS-CEB]` runs.
pub fn check_observations(runs: &[Vec<MethodRun>; 2]) -> Vec<ObservationCheck> {
    let mut out = Vec::new();
    let [jl, sc] = runs;

    // O1: data-driven PGMs beat the PostgreSQL baseline on STATS-CEB;
    // plain histogram/sampling traditional methods do not beat the best
    // data-driven method.
    if let (Some(pg), Some(deep), Some(flat), Some(uni)) = (
        find(sc, Postgres),
        find(sc, DeepDb),
        find(sc, Flat),
        find(sc, UniSample),
    ) {
        let best_pgm = e2e(deep).min(e2e(flat));
        out.push(ObservationCheck {
            id: "O1",
            claim: "data-driven PGM methods improve over PostgreSQL; naive sampling does not beat them",
            pass: best_pgm < e2e(pg) && e2e(uni) > best_pgm,
            evidence: format!(
                "PG {:.3}s, DeepDB {:.3}s, FLAT {:.3}s, UniSample {:.3}s",
                e2e(pg),
                e2e(deep),
                e2e(flat),
                e2e(uni)
            ),
        });
    }

    // O2: the spread between methods is larger on STATS-CEB than on
    // JOB-LIGHT (relative to the baseline).
    let spread = |runs: &[MethodRun]| -> Option<f64> {
        let base = e2e(find(runs, Postgres)?);
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for r in runs
            .iter()
            .filter(|r| r.kind != NeuroCardE && r.kind != UniSample)
        {
            lo = lo.min(e2e(r) / base);
            hi = hi.max(e2e(r) / base);
        }
        Some(hi - lo)
    };
    if let (Some(s_sc), Some(s_jl)) = (spread(sc), spread(jl)) {
        out.push(ObservationCheck {
            id: "O2",
            claim: "STATS-CEB separates methods more than JOB-LIGHT",
            pass: s_sc > s_jl * 0.8, // allow noise; the paper's gap is large
            evidence: format!("relative spread STATS-CEB {s_sc:.3} vs JOB-LIGHT {s_jl:.3}"),
        });
    }

    // O3: NeuroCard's full-join modelling does not beat the baseline on
    // STATS-CEB while the divide-and-conquer data-driven methods do.
    if let (Some(pg), Some(nc), Some(bc)) = (
        find(sc, Postgres),
        find(sc, NeuroCardE),
        find(sc, BayesCard),
    ) {
        out.push(ObservationCheck {
            id: "O3",
            claim: "one-model-on-full-join (NeuroCard^E) loses on STATS while per-table models win",
            pass: e2e(nc) > e2e(pg) && e2e(bc) < e2e(pg),
            evidence: format!(
                "NeuroCard^E {:.3}s vs PG {:.3}s vs BayesCard {:.3}s",
                e2e(nc),
                e2e(pg),
                e2e(bc)
            ),
        });
    }

    // O4: estimation error grows with join count for the data-driven
    // methods (median of per-query median Q-Errors, small vs large joins).
    for kind in [BayesCard, DeepDb, Flat] {
        if let Some(r) = find(sc, kind) {
            let med = |lo: usize, hi: usize| {
                let v: Vec<f64> = r
                    .queries
                    .iter()
                    .filter(|q| q.n_tables >= lo && q.n_tables <= hi)
                    .map(|q| percentile(&q.q_errors, 0.5))
                    .collect();
                percentile(&v, 0.5)
            };
            let small = med(2, 3);
            let large = med(6, 8);
            if small.is_finite() && large.is_finite() {
                out.push(ObservationCheck {
                    id: "O4",
                    claim: "estimation error grows with the number of joined tables",
                    pass: large >= small,
                    evidence: format!(
                        "{}: median Q-Error 2-3 tables {small:.2}, 6-8 tables {large:.2}",
                        kind.name()
                    ),
                });
            }
        }
    }

    // O7: planning share is larger on short (TP) queries than long (AP)
    // ones for the slow-inference methods.
    if let Some(nc) = find(sc, NeuroCardE) {
        let mut times: Vec<f64> = nc.queries.iter().map(|q| q.exec.as_secs_f64()).collect();
        times.sort_by(f64::total_cmp);
        let median = times[times.len() / 2];
        let share = |pred: &dyn Fn(f64) -> bool| {
            let (mut p, mut e) = (0.0, 0.0);
            for q in &nc.queries {
                if pred(q.exec.as_secs_f64()) {
                    p += q.plan.as_secs_f64();
                    e += q.exec.as_secs_f64();
                }
            }
            p / (p + e).max(1e-12)
        };
        let tp = share(&|t| t <= median);
        let ap = share(&|t| t > median);
        out.push(ObservationCheck {
            id: "O7",
            claim: "inference latency dominates short (TP) queries more than long (AP) ones",
            pass: tp > ap,
            evidence: format!(
                "NeuroCard^E plan share: TP {:.1}% vs AP {:.1}%",
                tp * 100.0,
                ap * 100.0
            ),
        });
    }

    // O8/Figure 3: BayesCard trains faster and is smaller than the SPN
    // family, which in turn undercuts NeuroCard's training cost.
    if let (Some(bc), Some(deep), Some(nc)) =
        (find(sc, BayesCard), find(sc, DeepDb), find(sc, NeuroCardE))
    {
        let [bc, deep, nc] = [bc, deep, nc].map(|r| r.train_time.as_secs_f64());
        out.push(ObservationCheck {
            id: "O8",
            claim: "training cost: BayesCard < DeepDB < NeuroCard^E",
            pass: bc < deep && deep < nc,
            evidence: format!("train: BayesCard {bc:.3}s, DeepDB {deep:.3}s, NeuroCard^E {nc:.3}s"),
        });
    }

    // O14: across methods, P-Error medians correlate with execution time
    // at least as strongly as Q-Error medians.
    if sc.len() >= 4 {
        let exec: Vec<f64> = sc.iter().map(|r| r.exec_total().as_secs_f64()).collect();
        let q50: Vec<f64> = sc
            .iter()
            .map(|r| percentile_triple(&r.all_q_errors()).0.ln())
            .collect();
        let p50: Vec<f64> = sc
            .iter()
            .map(|r| percentile_triple(&r.all_p_errors()).0.ln().max(-20.0))
            .collect();
        let rq = spearman(&exec, &q50);
        let rp = spearman(&exec, &p50);
        out.push(ObservationCheck {
            id: "O14",
            claim: "P-Error tracks execution time at least as well as Q-Error",
            pass: rp >= rq - 0.1,
            evidence: format!("spearman(exec, P50) {rp:.3} vs spearman(exec, Q50) {rq:.3}"),
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

    use super::*;
    use crate::checkpoint::{results_from_json, results_to_json};
    use crate::endtoend::QueryRun;

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
}
