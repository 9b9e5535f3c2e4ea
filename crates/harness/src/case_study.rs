//! The Figure-2 style case study: for the workload's largest query,
//! render the plan trees chosen by contrasting estimators with estimated
//! vs true cardinalities per node, plus measured execution times. The
//! plan shown is the end-to-end run's: the query goes through
//! [`plan_query_via`] (guarded estimates, PostgreSQL fallback,
//! cross-product clamp) and `execute_one` (warm-up plus median of
//! three).

use std::fmt::Write as _;
use std::sync::OnceLock;

use cardbench_engine::{CardMap, CostModel, Database, ExecScratch, TrueCardService};
use cardbench_estimators::CardEst;
use cardbench_workload::{Workload, WorkloadQuery};

use crate::endtoend::{estimate_all, execute_one, plan_query_via};
use crate::fault::RunOptions;
use crate::report::fmt_duration;

/// Picks the workload query with the largest true cardinality — the
/// regime where paper observations O5/O6 (big sub-plans dominate; the
/// root operator choice matters more than join order) live.
pub fn pick_case_query(wl: &Workload) -> &WorkloadQuery {
    wl.queries
        .iter()
        .max_by(|a, b| a.true_card.total_cmp(&b.true_card))
        .expect("non-empty workload")
}

/// Runs the case study for one estimator and renders its annotated plan.
pub fn case_study(
    db: &Database,
    wq: &WorkloadQuery,
    est: &dyn CardEst,
    truth: &TrueCardService,
    cost: &CostModel,
) -> String {
    let estimate = |subs: &[_]| estimate_all(est, db, subs, None);
    let planned = plan_query_via(db, wq, &estimate, truth, cost, &OnceLock::new());
    let mut tree = String::new();
    if let Ok((bound, plan)) = &planned.plan {
        tree += &plan.render(&wq.query.tables, &|node| {
            let at = planned.subs.iter().position(|s| s.mask == node.mask());
            let i = at.expect("every plan node is a planned sub-plan");
            let (e, t) = (planned.sub_est_cards[i], planned.sub_true_cards[i]);
            format!("[est {e:.0} | true {t:.0}]")
        });
        // EXPLAIN view costed with the *true* cardinalities: the PPC the
        // plan actually pays (the numerator of P-Error).
        let mut true_cards = CardMap::new();
        for (sub, &t) in planned.subs.iter().zip(&planned.sub_true_cards) {
            true_cards.insert(sub.mask, t);
        }
        tree += "costed with true cardinalities:\n";
        tree += &cardbench_engine::explain(plan, db, bound, &wq.query.tables, cost, &true_cards);
    }
    let run = execute_one(db, planned, &RunOptions::default(), &mut ExecScratch::new());
    let (name, id) = (est.name(), wq.id);
    if let Some(failure) = &run.failure {
        return format!("{name} on Q{id}: {failure}\n");
    }
    let stats = &run.exec_stats;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{name} on Q{id} (true card {}, result {} rows, exec {}, {} intermediate rows; \
         operators: {} build / {} probe / {} gathered, {} spill parts)",
        wq.true_card,
        run.result_rows,
        fmt_duration(run.exec),
        stats.intermediate_rows,
        stats.build_rows,
        stats.probe_rows,
        stats.rows_gathered,
        stats.partitions_spilled,
    );
    s + &tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bench, BenchConfig};
    use crate::factory::build_estimator;
    use cardbench_estimators::chaos::{ChaosConfig, ChaosEst, FaultClass};
    use cardbench_estimators::EstimatorKind;

    /// The case study renders the plan the end-to-end run executes: its
    /// tree and its EXPLAIN text are those of the plan `plan_query_via`
    /// returns.
    #[test]
    fn case_study_renders_the_end_to_end_plan() {
        let b = Bench::build(BenchConfig::fast(6));
        let (db, cost) = (&b.stats_db, CostModel::default());
        let truth = TrueCardService::new();
        let wq = pick_case_query(&b.stats_wl);
        assert!(wq.true_card >= 1.0);
        for kind in [EstimatorKind::TrueCard, EstimatorKind::Postgres] {
            let built = build_estimator(kind, db, &b.stats_train, &b.config.settings);
            let est = built.est.as_ref();
            let s = case_study(db, wq, est, &truth, &cost);
            assert!(s.contains("Scan"), "plan missing scans:\n{s}");
            assert!(s.contains("| true "), "missing annotations:\n{s}");

            let estimate = |subs: &[_]| estimate_all(est, db, subs, None);
            let p = plan_query_via(db, wq, &estimate, &truth, &cost, &OnceLock::new());
            let (bound, plan) = p.plan.as_ref().expect("planned");
            let bare = plan.render(&wq.query.tables, &|_| String::new());
            let shown = s.lines().skip(1).take_while(|l| !l.starts_with("costed"));
            let shown: Vec<&str> = shown.map(|l| l.split(" [").next().unwrap_or(l)).collect();
            assert_eq!(shown, bare.lines().map(str::trim_end).collect::<Vec<_>>());
            let mut true_cards = CardMap::new();
            for (sub, &t) in p.subs.iter().zip(&p.sub_true_cards) {
                true_cards.insert(sub.mask, t);
            }
            let explained =
                cardbench_engine::explain(plan, db, bound, &wq.query.tables, &cost, &true_cards);
            assert!(s.ends_with(&explained), "{kind:?}:\n{s}");
        }
    }

    /// An estimator that panics on every call degrades to the PostgreSQL
    /// fallback, as in the end-to-end run, instead of aborting the case
    /// study.
    #[test]
    fn case_study_survives_a_panicking_estimator() {
        let b = Bench::build(BenchConfig::fast(6));
        let built = build_estimator(
            EstimatorKind::Postgres,
            &b.stats_db,
            &b.stats_train,
            &b.config.settings,
        );
        let cfg = ChaosConfig {
            rate: 1.0,
            classes: vec![FaultClass::Panic],
            ..ChaosConfig::default()
        };
        let chaos = ChaosEst::new(built.est, cfg);
        let wq = pick_case_query(&b.stats_wl);
        let truth = TrueCardService::new();
        let s = case_study(&b.stats_db, wq, &chaos, &truth, &CostModel::default());
        assert!(s.contains("Scan"), "no fallback plan:\n{s}");
        assert!(s.contains("| true "), "missing annotations:\n{s}");
    }
}
