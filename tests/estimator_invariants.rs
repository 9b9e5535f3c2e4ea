//! Cross-estimator invariants, checked over the whole sub-plan space of
//! a generated workload.

use cardbench::engine::TrueCardService;
use cardbench::harness::{build_estimator, Bench, BenchConfig};
use cardbench::prelude::*;
use cardbench::query::{connected_subsets, Region, TableMask};

/// Every estimator returns finite, non-negative estimates on every
/// sub-plan of every workload query, on both schemas — and on a
/// predicate over a key column, which the data-driven models do not
/// model and must answer neutrally rather than panic on.
#[test]
fn all_estimates_finite_and_nonnegative() {
    let b = Bench::build(BenchConfig::fast(41));
    let key_predicate = SubPlanQuery {
        mask: TableMask::single(0),
        query: JoinQuery::single("users", vec![Predicate::new(0, "Id", Region::ge(5))]),
    };
    for kind in EstimatorKind::ALL {
        for (db, wl, train, extra) in [
            (
                &b.stats_db,
                &b.stats_wl,
                &b.stats_train,
                Some(&key_predicate),
            ),
            (&b.imdb_db, &b.imdb_wl, &b.imdb_train, None),
        ] {
            let built = build_estimator(kind, db, train, &b.config.settings);
            let subs = wl.queries.iter().flat_map(|wq| {
                connected_subsets(&wq.query)
                    .into_iter()
                    .map(|mask| SubPlanQuery::project(&wq.query, mask))
            });
            for sp in subs.chain(extra.cloned()) {
                let e = built.est.estimate(db, &sp);
                assert!(
                    e.is_finite() && e >= 0.0,
                    "{} on {}: {e} for {:?}",
                    kind.name(),
                    wl.name,
                    sp.query
                );
            }
        }
    }
}

/// Single-table, no-predicate estimates should be near the row count for
/// every statistics-bearing method.
#[test]
fn unfiltered_single_table_near_row_count() {
    let b = Bench::build(BenchConfig::fast(42));
    let db = &b.stats_db;
    for kind in [
        EstimatorKind::TrueCard,
        EstimatorKind::Postgres,
        EstimatorKind::MultiHist,
        EstimatorKind::UniSample,
        EstimatorKind::PessEst,
        EstimatorKind::BayesCard,
        EstimatorKind::DeepDb,
        EstimatorKind::Flat,
        EstimatorKind::Sketch,
    ] {
        let built = build_estimator(kind, db, &b.stats_train, &b.config.settings);
        for name in ["users", "posts", "comments"] {
            let rows = db.catalog().table_by_name(name).unwrap().row_count() as f64;
            let sub = SubPlanQuery {
                mask: TableMask::single(0),
                query: JoinQuery::single(name, vec![]),
            };
            let e = built.est.estimate(db, &sub);
            let ratio = (e / rows).max(rows / e.max(1.0));
            assert!(
                ratio < 1.25,
                "{} on {name}: est {e} vs rows {rows}",
                kind.name()
            );
        }
    }
}

/// The data-driven methods' unfiltered join estimates track the truth
/// within a modest factor (fanout expectations are binning-exact).
#[test]
fn data_driven_unfiltered_joins_tight() {
    let b = Bench::build(BenchConfig::fast(43));
    let db = &b.stats_db;
    let truth = TrueCardService::new();
    for kind in [
        EstimatorKind::BayesCard,
        EstimatorKind::DeepDb,
        EstimatorKind::Flat,
    ] {
        let built = build_estimator(kind, db, &b.stats_train, &b.config.settings);
        for wq in &b.stats_wl.queries {
            if wq.query.table_count() != 2 {
                continue;
            }
            let mut q = wq.query.clone();
            q.predicates.clear();
            let sub = SubPlanQuery {
                mask: TableMask::full(2),
                query: q.clone(),
            };
            let t = truth.cardinality(db, &q).unwrap().max(1.0);
            let e = built.est.estimate(db, &sub).max(1.0);
            let qerr = (e / t).max(t / e);
            assert!(
                qerr < 3.0,
                "{} unfiltered {:?}: est {e} true {t}",
                kind.name(),
                q.tables
            );
        }
    }
}

/// Update support flags match behaviour: updatable estimators absorb
/// inserts without panicking and keep estimating.
#[test]
fn updatable_estimators_survive_inserts() {
    use cardbench::datagen::stats::{temporal_split, SPLIT_DAY};
    use cardbench::datagen::{stats_catalog, StatsConfig};
    use cardbench::engine::Database;

    let cfg = StatsConfig::tiny(44);
    let full = stats_catalog(&cfg);
    let (stale, inserts) = temporal_split(&full, SPLIT_DAY);
    let b_train = cardbench::estimators::lw::TrainingSet::default();
    let settings = cardbench::harness::EstimatorSettings::fast(44);
    for kind in [
        EstimatorKind::TrueCard,
        EstimatorKind::Postgres,
        EstimatorKind::PessEst,
        EstimatorKind::NeuroCardE,
        EstimatorKind::BayesCard,
        EstimatorKind::DeepDb,
        EstimatorKind::Flat,
        EstimatorKind::Sketch,
    ] {
        let stale_db = Database::new(stale.clone());
        let mut built = build_estimator(kind, &stale_db, &b_train, &settings);
        assert!(built.est.supports_update(), "{}", kind.name());
        let mut db = stale_db;
        db.append_inserts(&inserts).unwrap();
        built.est.apply_inserts(&db, &inserts);
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: JoinQuery::single("users", vec![]),
        };
        let e = built.est.estimate(&db, &sub);
        assert!(e.is_finite() && e > 0.0, "{}: {e}", kind.name());
    }
}
