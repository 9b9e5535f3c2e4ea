//! FLAT: FSPN-based estimation — the SPN family with factorize-style
//! joint multi-leaves over highly correlated attribute groups (RDC-like
//! thresholds 0.3/0.7 as in the paper), fanout join composition.

use cardbench_engine::Database;
use cardbench_ml::Spn;
use cardbench_query::SubPlanQuery;
use cardbench_storage::Table;

use crate::deepdb::{fit_spn_family, update_spn_family};
use crate::fanout::FanoutEstimator;
use crate::CardEst;

/// The FLAT estimator.
pub struct Flat {
    pub(crate) inner: FanoutEstimator<Spn>,
}

impl Flat {
    /// Learns one FSPN (multi-leaf SPN) per table.
    pub fn fit(db: &Database, max_bins: usize, seed: u64) -> Flat {
        Flat {
            inner: fit_spn_family(db, max_bins, true, seed),
        }
    }

    /// Total node count (training diagnostics).
    pub fn node_count(&self) -> usize {
        self.inner.models.iter().map(Spn::node_count).sum()
    }
}

impl CardEst for Flat {
    fn name(&self) -> &'static str {
        "FLAT"
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.inner.estimate(db, sub)
    }

    /// Batched fanout evaluation: each per-table FSPN answers all the
    /// sub-plans' expectations in one bottom-up pass over its nodes (a
    /// multi-leaf's joint table is read once per batch, in key order).
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
    use cardbench_query::{JoinQuery, Predicate, Region, TableMask};

    #[test]
    fn correlated_pair_estimate_beats_independence() {
        let db = Database::new(stats_catalog(&StatsConfig {
            scale: 0.01,
            coupling: 0.8,
            ..StatsConfig::default()
        }));
        // Score and ViewCount are strongly coupled through the latent;
        // conjunctive predicates on both expose independence errors.
        let q = JoinQuery::single(
            "posts",
            vec![
                Predicate::new(0, "Score", Region::ge(10)),
                Predicate::new(0, "ViewCount", Region::ge(100)),
            ],
        );
        let truth = exact_cardinality(&db, &q).unwrap().max(1.0);
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: q,
        };
        let flat = Flat::fit(&db, 24, 0);
        let e = flat.estimate(&db, &sub).max(1.0);
        let qerr_flat = (e / truth).max(truth / e);
        // FLAT should track the joint reasonably well.
        assert!(
            qerr_flat < 5.0,
            "flat qerr {qerr_flat} (est {e}, true {truth})"
        );
    }

    #[test]
    fn flat_not_larger_than_deepdb_on_correlated_tables() {
        use crate::deepdb::DeepDb;
        let db = Database::new(stats_catalog(&StatsConfig {
            scale: 0.005,
            coupling: 0.7,
            ..StatsConfig::default()
        }));
        let flat = Flat::fit(&db, 24, 0);
        let deep = DeepDb::fit(&db, 24, 0);
        // Multi-leaves terminate recursion early: FLAT builds no more
        // nodes than DeepDB on the same data (paper O8's compactness).
        assert!(flat.node_count() <= deep.node_count());
    }
}
