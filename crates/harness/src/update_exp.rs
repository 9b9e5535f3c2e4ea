//! The dynamic-data experiment (paper Table 6): train stale models on the
//! pre-cutoff half of STATS, bulk-insert the rest, measure update time
//! and post-update end-to-end performance.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use cardbench_datagen::stats::{temporal_split, SPLIT_DAY};
use cardbench_engine::{CostModel, Database, TrueCardService};
use cardbench_estimators::lw::TrainingSet;
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_storage::{Catalog, Table};
use cardbench_workload::Workload;

use crate::config::EstimatorSettings;
use crate::endtoend::run_workload;
use crate::factory::build_estimator;
use crate::fault::RunOptions;
use crate::pass;
use crate::report::fmt_duration;

/// Result of the update experiment for one method.
#[derive(Debug, Clone)]
pub struct UpdateResult {
    /// Time to absorb the inserts.
    pub update_time: Duration,
    /// End-to-end time of the *fresh* model on the full data (Table 3
    /// comparison baseline).
    pub e2e_fresh: Duration,
    /// End-to-end time of the *updated stale* model on the full data.
    pub e2e_updated: Duration,
}

/// The methods Table 6 updates: the paper's data-driven four
/// (query-driven methods are impractical for dynamic data — observation
/// O9) plus the sketch estimator, whose refresh is a true in-place
/// stream rather than a partial retrain.
pub const UPDATABLE: [EstimatorKind; 5] = [
    EstimatorKind::NeuroCardE,
    EstimatorKind::BayesCard,
    EstimatorKind::DeepDb,
    EstimatorKind::Flat,
    EstimatorKind::Sketch,
];

/// One Table 6 column: either a measured update or a typed skip. Kinds
/// outside [`UPDATABLE`] used to be silently omitted from the results;
/// now every evaluated kind gets a row, so a rendered table shows *why*
/// a method has no update numbers (the paper's O9 presentation) and
/// partial runs stay legible.
#[derive(Debug, Clone)]
pub struct UpdateRow {
    /// Which estimator.
    pub kind: EstimatorKind,
    /// Measured result, or the reason the kind was skipped.
    pub outcome: Result<UpdateResult, String>,
}

/// Why a kind outside [`UPDATABLE`] is skipped, per the paper's O9.
fn skip_reason(kind: EstimatorKind) -> String {
    match kind {
        EstimatorKind::TrueCard => "oracle recomputes truths; nothing to update".to_string(),
        EstimatorKind::Postgres
        | EstimatorKind::MultiHist
        | EstimatorKind::UniSample
        | EstimatorKind::WjSample
        | EstimatorKind::PessEst => "rebuilds from data; no incremental update path".to_string(),
        EstimatorKind::Feedback => {
            "adaptive wrapper; updates via observations, not inserts".to_string()
        }
        _ => format!(
            "{} method retrains on new executions (O9)",
            kind.class().to_lowercase()
        ),
    }
}

/// The one timed update, behind Table 6 and `report update-scaling`:
/// builds `kind` on `stale`, appends `inserts` and times
/// [`CardEst::apply_inserts`]. Returns the estimator, database and time.
pub fn timed_update(
    kind: EstimatorKind,
    stale: &Catalog,
    inserts: &[Table],
    train: &TrainingSet,
    settings: &EstimatorSettings,
) -> (Box<dyn CardEst>, Database, Duration) {
    let mut db = Database::new(stale.clone());
    let mut est = build_estimator(kind, &db, train, settings).est;
    db.append_inserts(inserts)
        .expect("the inserts share the stale catalog's schemas");
    let t0 = Instant::now();
    est.apply_inserts(&db, inserts);
    (est, db, t0.elapsed())
}

/// Runs the full update experiment: returns one [`UpdateRow`] per
/// evaluated kind — measured for [`UPDATABLE`] methods, skip-and-report
/// for the rest. `full` is the STATS catalog the workload was built
/// on; the fresh models run on a clone of it, so their timings start
/// from cold caches.
pub fn run_update_experiment(
    full: &Catalog,
    wl: &Workload,
    settings: &EstimatorSettings,
    cost: &CostModel,
) -> Vec<UpdateRow> {
    let (stale_catalog, inserts) = temporal_split(full, SPLIT_DAY);
    let full_db = Database::new(full.clone());
    let truth = TrueCardService::new();
    let opts = RunOptions::default();
    // Query-driven training set unused by the updatable (data-driven)
    // methods.
    let empty_train = TrainingSet::default();
    let e2e = |db: &Database, est: &dyn CardEst| {
        pass::e2e(&run_workload(db, wl, est, &truth, cost, &opts))
    };
    EstimatorKind::ALL
        .into_iter()
        .map(|kind| {
            let outcome = if UPDATABLE.contains(&kind) {
                // Fresh model on the full data (the Table 3 number).
                let fresh = build_estimator(kind, &full_db, &empty_train, settings).est;
                let e2e_fresh = e2e(&full_db, fresh.as_ref());
                let (updated, db, update_time) =
                    timed_update(kind, &stale_catalog, &inserts, &empty_train, settings);
                Ok(UpdateResult {
                    update_time,
                    e2e_fresh,
                    e2e_updated: e2e(&db, updated.as_ref()),
                })
            } else {
                Err(skip_reason(kind))
            };
            UpdateRow { kind, outcome }
        })
        .collect()
}

/// Renders paper Table 6. Skipped kinds render `—` cells in the timing
/// rows plus one trailing `skipped:` line each with the reason, so a
/// partial or full run always shows every evaluated method.
pub fn table6(rows: &[UpdateRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 6: Update performance of CardEst algorithms");
    let _ = write!(s, "{:<28}", "Criteria");
    for r in rows {
        let _ = write!(s, " {:>12}", r.kind.name());
    }
    let _ = writeln!(s);
    let timing_row = |s: &mut String, label: &str, f: &dyn Fn(&UpdateResult) -> Duration| {
        let _ = write!(s, "{label:<28}");
        for r in rows {
            match &r.outcome {
                Ok(u) => {
                    let _ = write!(s, " {:>12}", fmt_duration(f(u)));
                }
                Err(_) => {
                    let _ = write!(s, " {:>12}", "—");
                }
            }
        }
        let _ = writeln!(s);
    };
    timing_row(&mut s, "Update time", &|u| u.update_time);
    timing_row(&mut s, "Original E2E time (fresh)", &|u| u.e2e_fresh);
    timing_row(&mut s, "E2E time after update", &|u| u.e2e_updated);
    for r in rows {
        if let Err(reason) = &r.outcome {
            let _ = writeln!(s, "skipped: {:<12} {reason}", r.kind.name());
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_datagen::{stats_catalog, StatsConfig};
    use cardbench_workload::{stats_ceb, WorkloadConfig};

    #[test]
    fn update_experiment_runs() {
        let db = Database::new(stats_catalog(&StatsConfig::tiny(4)));
        let wl = stats_ceb(
            &db,
            &WorkloadConfig {
                templates: 6,
                queries: 6,
                max_tables: 4,
                ..WorkloadConfig::stats_ceb(4)
            },
        );
        let settings = EstimatorSettings::fast(4);
        let rows = run_update_experiment(db.catalog(), &wl, &settings, &CostModel::default());
        // Every evaluated kind gets a row; exactly the UPDATABLE five
        // carry measurements, the rest are typed skips.
        assert_eq!(rows.len(), EstimatorKind::ALL.len());
        let measured = |kind| {
            rows.iter()
                .find(|r| r.kind == kind)
                .and_then(|r| r.outcome.as_ref().ok())
        };
        for row in &rows {
            assert_eq!(
                row.outcome.is_ok(),
                UPDATABLE.contains(&row.kind),
                "{:?}",
                row.kind
            );
        }
        // BayesCard's incremental count update beats NeuroCard's retrain.
        let bc = measured(EstimatorKind::BayesCard).unwrap();
        let nc = measured(EstimatorKind::NeuroCardE).unwrap();
        assert!(
            bc.update_time < nc.update_time,
            "BayesCard {:?} vs NeuroCard {:?}",
            bc.update_time,
            nc.update_time
        );
        let rendered = table6(&rows);
        assert!(rendered.contains("Update time"));
        assert!(rendered.contains("BayesCard"));
        // Skipped kinds render dash cells plus a reason line.
        assert!(rendered.contains("MSCN"), "{rendered}");
        assert!(rendered.contains('—'), "{rendered}");
        assert!(rendered.contains("skipped: MSCN"), "{rendered}");
        assert!(rendered.contains("skipped: PostgreSQL"), "{rendered}");
        // Sketch is measured now, not skip-and-reported.
        assert!(!rendered.contains("skipped: Sketch"), "{rendered}");
        assert!(
            measured(EstimatorKind::Sketch).is_some(),
            "Sketch missing from the measured set"
        );
    }
}
