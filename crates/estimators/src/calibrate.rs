//! RD3 from the paper's future directions: *optimize CardEst toward the
//! end-to-end objective* — here, tune an existing estimator against
//! P-Error instead of Q-Error.
//!
//! [`PErrorCalibrated`] wraps any estimator with one multiplicative
//! correction factor per join count, chosen by greedy coordinate descent
//! to minimize the summed P-Error over a validation workload. Because
//! P-Error scores the *plan* the estimates produce (weighting big
//! sub-plans implicitly), this tunes exactly the errors that change
//! plans — unlike a Q-Error-minimizing calibration, which would weight
//! all sub-plans equally (paper O12/O13).

use std::sync::Arc;

use cardbench_engine::{
    clamp_row_est, optimize_topo, CardMap, CostModel, Database, TrueCardService,
};
use cardbench_metrics::TruthCost;
use cardbench_query::{BoundQuery, JoinQuery, SubPlanQuery};
use cardbench_storage::Table;

use crate::CardEst;

/// An estimator with per-join-count multiplicative corrections.
pub struct PErrorCalibrated<E: CardEst> {
    inner: E,
    /// `factors[k-1]` multiplies estimates of `k`-table sub-plans.
    factors: Vec<f64>,
}

/// The candidate correction factors explored per join count
/// (cardinality errors are multiplicative and often orders of magnitude).
const GRID: [f64; 9] = [1.0 / 64.0, 1.0 / 16.0, 0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 64.0];

impl<E: CardEst> PErrorCalibrated<E> {
    /// Calibrates `inner` on `validation` queries: greedy coordinate
    /// descent over join-count levels, largest first (big joins dominate
    /// plans — paper O5).
    pub fn calibrate(
        inner: E,
        db: &Database,
        validation: &[JoinQuery],
        truth: &TrueCardService,
        cost: &CostModel,
    ) -> PErrorCalibrated<E> {
        let max_tables = validation
            .iter()
            .map(JoinQuery::table_count)
            .max()
            .unwrap_or(1);
        let mut factors = vec![1.0; max_tables];
        // Per query, once: the raw estimate and table count of each
        // sub-plan (dense over the query's topology) and the truth half of
        // P-Error, which no trial's factors can move.
        let mut prepared = Vec::new();
        for q in validation {
            let Ok(bound) = BoundQuery::bind(q, db.catalog()) else {
                continue;
            };
            let topo = db.topology(q, &bound);
            let (mut ests, mut true_rows) = (Vec::new(), CardMap::new());
            for &mask in topo.masks() {
                let sp = SubPlanQuery::project(q, mask);
                ests.push((sp.query.table_count(), inner.estimate(db, &sp)));
                true_rows.insert(mask, truth.cardinality(db, &sp.query).unwrap_or(1.0));
            }
            let dense_true = true_rows.dense_view(&topo);
            let truth = TruthCost::new(db, cost, Arc::clone(&topo), &bound, dense_true);
            prepared.push((bound, topo, ests, truth));
        }
        let objective = |factors: &[f64]| -> f64 {
            let mut total = 0.0;
            for (bound, topo, ests, truth) in &prepared {
                // What `CardMap::insert` would store, without the map.
                let dense: Vec<f64> = ests
                    .iter()
                    .map(|&(k, raw)| clamp_row_est(raw * factors[k - 1], f64::MAX).0)
                    .collect();
                let (_, plan) = optimize_topo(topo, bound, db, &dense, cost, false);
                total += truth.p_error(db, cost, bound, &plan);
            }
            total
        };
        for k in (1..=max_tables).rev() {
            let mut best = (objective(&factors), factors[k - 1]);
            for &f in &GRID {
                let mut trial = factors.clone();
                trial[k - 1] = f;
                let score = objective(&trial);
                if score < best.0 {
                    best = (score, f);
                }
            }
            factors[k - 1] = best.1;
        }
        PErrorCalibrated { inner, factors }
    }

    /// The learned correction factors (index = join count − 1).
    pub fn factors(&self) -> &[f64] {
        &self.factors
    }
}

impl<E: CardEst> CardEst for PErrorCalibrated<E> {
    fn name(&self) -> &'static str {
        "P-Calibrated"
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        let raw = self.inner.estimate(db, sub);
        let k = sub.query.table_count();
        let f = self
            .factors
            .get(k - 1)
            .copied()
            .unwrap_or_else(|| *self.factors.last().unwrap_or(&1.0));
        raw * f
    }

    fn model_size_bytes(&self) -> usize {
        self.inner.model_size_bytes() + self.factors.len() * 8
    }

    fn supports_update(&self) -> bool {
        self.inner.supports_update()
    }

    fn apply_inserts(&mut self, db: &Database, delta: &[Table]) {
        self.inner.apply_inserts(db, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_query::{JoinEdge, Predicate, Region, TableMask};
    use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, TableSchema};

    /// An estimator that is exactly right on single tables but 100× low
    /// on joins — calibration should push the join factor up.
    struct JoinsLow;

    impl CardEst for JoinsLow {
        fn name(&self) -> &'static str {
            "JoinsLow"
        }

        fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
            let t = cardbench_engine::exact_cardinality(db, &sub.query).unwrap_or(1.0);
            if sub.query.table_count() == 1 {
                t
            } else {
                t / 100.0
            }
        }
    }

    fn db() -> Database {
        let mut cat = Catalog::new();
        for (name, rows) in [("a", 3000usize), ("b", 800), ("c", 60)] {
            cat.add_table(
                cardbench_storage::Table::from_columns(
                    TableSchema::new(
                        name,
                        vec![
                            ColumnDef::new("k", ColumnKind::ForeignKey),
                            ColumnDef::new("v", ColumnKind::Numeric),
                        ],
                    ),
                    vec![
                        Column::from_values((0..rows as i64).map(|i| i % 40).collect()),
                        Column::from_values((0..rows as i64).map(|i| i % 7).collect()),
                    ],
                )
                .unwrap(),
            );
        }
        Database::new(cat)
    }

    fn validation() -> Vec<JoinQuery> {
        (0..4)
            .map(|i| JoinQuery {
                tables: vec!["a".into(), "b".into(), "c".into()],
                joins: vec![JoinEdge::new(0, "k", 1, "k"), JoinEdge::new(1, "k", 2, "k")],
                predicates: vec![Predicate::new(0, "v", Region::le(i))],
            })
            .collect()
    }

    #[test]
    fn calibration_corrects_systematic_join_bias() {
        let db = db();
        let truth = TrueCardService::new();
        let cost = CostModel::default();
        let cal = PErrorCalibrated::calibrate(JoinsLow, &db, &validation(), &truth, &cost);
        // The 2-table level is what steers a 3-table plan (the root
        // output estimate changes nothing downstream): its factor must
        // move up toward the 100× truth.
        assert!(cal.factors()[1] > 1.0, "factors {:?}", cal.factors());
        // Pinned: computing each query's truth half once per
        // calibration, not once per trial, moves no factor.
        assert_eq!(cal.factors(), [0.5, 64.0, 1.0]);
    }

    #[test]
    fn calibrated_estimates_apply_factor() {
        let db = db();
        let truth = TrueCardService::new();
        let cost = CostModel::default();
        let cal = PErrorCalibrated::calibrate(JoinsLow, &db, &validation(), &truth, &cost);
        let q = validation().pop().unwrap();
        let sub = SubPlanQuery {
            mask: TableMask::full(3),
            query: q.clone(),
        };
        let t = cardbench_engine::exact_cardinality(&db, &q).unwrap();
        let raw = t / 100.0;
        let corrected = cal.estimate(&db, &sub);
        assert!((corrected - raw * cal.factors()[2]).abs() < 1e-6);
    }
}
