//! BayesCard: one Chow-Liu tree Bayesian network per table (over
//! attributes + fanout columns), exact variable-elimination inference,
//! fanout join composition.

use cardbench_engine::Database;
use cardbench_ml::{ModelScratch, TreeBayesNet, WeightBatch};
use cardbench_query::SubPlanQuery;
use cardbench_storage::{Table, TableId};

use crate::common::TableCoder;
use crate::fanout::{FanoutEstimator, TableModel};
use crate::CardEst;

impl TableModel for TreeBayesNet {
    fn expectation_batch(
        &self,
        batch: &WeightBatch,
        scratch: &mut ModelScratch,
        out: &mut Vec<f64>,
    ) {
        self.query_batch(batch, scratch, out);
    }

    fn size_bytes(&self) -> usize {
        TreeBayesNet::size_bytes(self)
    }

    fn update(&mut self, binned: &[Vec<u16>]) {
        self.observe(binned);
    }
}

/// The BayesCard estimator.
pub struct BayesCard {
    inner: FanoutEstimator<TreeBayesNet>,
}

impl BayesCard {
    /// Learns one BN per table.
    pub fn fit(db: &Database, max_bins: usize) -> BayesCard {
        let nt = db.catalog().table_count();
        let mut coders = Vec::with_capacity(nt);
        let mut models = Vec::with_capacity(nt);
        let mut row_counts = Vec::with_capacity(nt);
        for t in 0..nt {
            let id = TableId(t);
            let coder = TableCoder::fit(db, id, max_bins, true);
            let binned = coder.binned(db, None);
            let net = TreeBayesNet::fit(&binned, &coder.bins);
            coders.push(coder);
            models.push(net);
            row_counts.push(db.row_count(id) as f64);
        }
        BayesCard {
            inner: FanoutEstimator {
                coders,
                models,
                row_counts,
            },
        }
    }
}

impl CardEst for BayesCard {
    fn name(&self) -> &'static str {
        "BayesCard"
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.inner.estimate(db, sub)
    }

    /// Batched fanout evaluation: per-table Bayesian networks answer all
    /// sub-plans' expectations in grouped inference calls.
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        self.inner.estimate_batch(db, subs)
    }

    fn batch_leverage(&self) -> bool {
        true
    }

    fn model_size_bytes(&self) -> usize {
        self.inner.size_bytes()
    }

    fn supports_update(&self) -> bool {
        true
    }

    fn apply_inserts(&mut self, db: &Database, delta: &[Table]) {
        // Structure preserved; counts incremented over the inserted rows
        // (the rows now occupy the tail of each table).
        for (t, d) in delta.iter().enumerate() {
            if d.row_count() == 0 {
                continue;
            }
            let total = db.row_count(TableId(t));
            let new_rows: Vec<usize> = (total - d.row_count()..total).collect();
            let binned = self.inner.coders[t].binned(db, Some(&new_rows));
            self.inner.models[t].update(&binned);
            self.inner.row_counts[t] = total as f64;
        }
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
        let est = BayesCard::fit(&db, 24);
        let q = JoinQuery::single(
            "posts",
            vec![Predicate::new(0, "PostTypeId", Region::eq(1))],
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
    fn unfiltered_join_estimates_close() {
        let db = db();
        let est = BayesCard::fit(&db, 24);
        let q = JoinQuery {
            tables: vec!["users".into(), "badges".into()],
            joins: vec![JoinEdge::new(0, "Id", 1, "UserId")],
            predicates: vec![],
        };
        let truth = exact_cardinality(&db, &q).unwrap().max(1.0);
        let sub = SubPlanQuery {
            mask: TableMask::full(2),
            query: q,
        };
        let e = est.estimate(&db, &sub).max(1.0);
        // Unfiltered joins are captured by fanout expectations alone;
        // binning error is the only slack.
        let qerr = (e / truth).max(truth / e);
        assert!(qerr < 1.6, "qerr {qerr} (est {e}, true {truth})");
    }

    #[test]
    fn update_tracks_inserts() {
        use cardbench_datagen::stats::{temporal_split, SPLIT_DAY};
        let full = stats_catalog(&StatsConfig::tiny(5));
        let (stale, inserts) = temporal_split(&full, SPLIT_DAY);
        let mut db = Database::new(stale);
        let mut est = BayesCard::fit(&db, 24);
        let before_users = db.row_count(TableId(0));
        for (t, d) in inserts.iter().enumerate() {
            db.catalog_mut()
                .table_mut(TableId(t))
                .append_rows(d)
                .unwrap();
        }
        db.refresh();
        est.apply_inserts(&db, &inserts);
        assert!(est.inner.row_counts[0] as usize > before_users);
        // Row-count estimate of the unfiltered users table reflects the
        // post-insert size.
        let q = JoinQuery::single("users", vec![]);
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: q,
        };
        let e = est.estimate(&db, &sub);
        assert_eq!(e.round() as usize, db.row_count(TableId(0)));
    }
}
