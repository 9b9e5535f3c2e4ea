//! DeepDB: one sum-product network per table (over attributes + fanout
//! columns), fanout join composition.

use cardbench_engine::Database;
use cardbench_ml::spn::SpnConfig;
use cardbench_ml::{ModelScratch, Spn, WeightBatch};
use cardbench_query::SubPlanQuery;
use cardbench_storage::{Table, TableId};

use crate::common::TableCoder;
use crate::fanout::{FanoutEstimator, TableModel};
use crate::CardEst;

impl TableModel for Spn {
    fn expectation_batch(
        &self,
        batch: &WeightBatch,
        scratch: &mut ModelScratch,
        out: &mut Vec<f64>,
    ) {
        self.query_batch(batch, scratch, out);
    }

    fn size_bytes(&self) -> usize {
        Spn::size_bytes(self)
    }

    fn update(&mut self, binned: &[Vec<u16>]) {
        Spn::update(self, binned);
    }
}

/// Shared construction for the SPN-family estimators (DeepDB and FLAT).
pub fn fit_spn_family(
    db: &Database,
    max_bins: usize,
    multileaf: bool,
    seed: u64,
) -> FanoutEstimator<Spn> {
    let nt = db.catalog().table_count();
    let mut coders = Vec::with_capacity(nt);
    let mut models = Vec::with_capacity(nt);
    let mut row_counts = Vec::with_capacity(nt);
    for t in 0..nt {
        let id = TableId(t);
        let coder = TableCoder::fit(db, id, max_bins, true);
        let binned = coder.binned(db, None);
        let rows = db.row_count(id);
        let cfg = SpnConfig {
            // The paper stops splitting below 1% of the input.
            min_rows: (rows / 100).max(48),
            multileaf,
            seed: seed ^ t as u64,
        };
        let spn = Spn::fit(&binned, &coder.bins, cfg);
        coders.push(coder);
        models.push(spn);
        row_counts.push(rows as f64);
    }
    FanoutEstimator {
        coders,
        models,
        row_counts,
    }
}

/// Routes an insert delta into an SPN-family estimator (parameter-only
/// update, structure preserved).
pub fn update_spn_family(inner: &mut FanoutEstimator<Spn>, db: &Database, delta: &[Table]) {
    for (t, d) in delta.iter().enumerate() {
        if d.row_count() == 0 {
            continue;
        }
        let total = db.row_count(TableId(t));
        let new_rows: Vec<usize> = (total - d.row_count()..total).collect();
        let binned = inner.coders[t].binned(db, Some(&new_rows));
        inner.models[t].update(&binned);
        inner.row_counts[t] = total as f64;
    }
}

/// The DeepDB estimator.
pub struct DeepDb {
    pub(crate) inner: FanoutEstimator<Spn>,
}

impl DeepDb {
    /// Learns one SPN per table.
    pub fn fit(db: &Database, max_bins: usize, seed: u64) -> DeepDb {
        DeepDb {
            inner: fit_spn_family(db, max_bins, false, seed),
        }
    }

    /// Total SPN node count (training diagnostics).
    pub fn node_count(&self) -> usize {
        self.inner.models.iter().map(Spn::node_count).sum()
    }
}

impl CardEst for DeepDb {
    fn name(&self) -> &'static str {
        "DeepDB"
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.inner.estimate(db, sub)
    }

    /// Batched fanout evaluation: each per-table SPN answers all the
    /// sub-plans' expectations in one bottom-up pass over its nodes.
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        self.inner.estimate_batch(db, subs)
    }

    fn batch_leverage(&self) -> bool {
        true
    }

    fn model_size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn apply_inserts(&mut self, db: &Database, delta: &[Table]) {
        update_spn_family(&mut self.inner, db, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_datagen::{stats_catalog, StatsConfig};
    use cardbench_engine::exact_cardinality;
    use cardbench_query::{JoinEdge, JoinQuery, Predicate, Region, TableMask};

    fn db() -> Database {
        Database::new(stats_catalog(&StatsConfig::tiny(1)))
    }

    #[test]
    fn single_table_estimates_close() {
        let db = db();
        let est = DeepDb::fit(&db, 24, 0);
        let q = JoinQuery::single(
            "votes",
            vec![Predicate::new(0, "VoteTypeId", Region::eq(2))],
        );
        let truth = exact_cardinality(&db, &q).unwrap().max(1.0);
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: q,
        };
        let e = est.estimate(&db, &sub).max(1.0);
        let qerr = (e / truth).max(truth / e);
        assert!(qerr < 2.0, "qerr {qerr} (est {e}, true {truth})");
    }

    #[test]
    fn two_table_join_reasonable() {
        let db = db();
        let est = DeepDb::fit(&db, 24, 0);
        let q = JoinQuery {
            tables: vec!["posts".into(), "comments".into()],
            joins: vec![JoinEdge::new(0, "Id", 1, "PostId")],
            predicates: vec![Predicate::new(1, "Score", Region::ge(1))],
        };
        let truth = exact_cardinality(&db, &q).unwrap().max(1.0);
        let sub = SubPlanQuery {
            mask: TableMask::full(2),
            query: q,
        };
        let e = est.estimate(&db, &sub).max(1.0);
        let qerr = (e / truth).max(truth / e);
        assert!(qerr < 5.0, "qerr {qerr} (est {e}, true {truth})");
    }
}
