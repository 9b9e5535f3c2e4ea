//! UAE-Q and UAE (Wu & Cong): unified query/data estimators.
//!
//! The original UAE trains a deep autoregressive backbone from queries
//! (UAE-Q) or from queries *and* data (UAE) via differentiable progressive
//! sampling. We substitute a documented simplification (DESIGN.md): UAE-Q
//! is a deeper query-feature network, and UAE additionally receives
//! data-derived inputs — the per-table selectivity estimates of 1-D
//! histograms — realizing the "unify query and data information" idea
//! within our substrate. Both inherit the query-driven regime's
//! workload-shift behaviour, which drives the paper's findings for them.

use cardbench_engine::Database;
use cardbench_ml::{Matrix, Mlp};
use cardbench_query::{BoundQuery, JoinQuery, Region, SubPlanQuery};

use crate::featurize::{card_to_label, label_to_card, Featurizer};
use crate::lw::{mlp_estimates, TrainingSet};
use crate::postgres::PostgresEst;
use crate::scratch::{with_scratch, InferScratch};
use crate::CardEst;

/// First hidden width.
const HIDDEN1: usize = 128;
/// Second hidden width.
const HIDDEN2: usize = 64;
/// Learning rate.
const LR: f32 = 0.002;

/// Shared configuration.
#[derive(Debug, Clone)]
pub struct UaeConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for UaeConfig {
    fn default() -> Self {
        UaeConfig {
            epochs: 30,
            seed: 0,
        }
    }
}

/// UAE-Q: query-only deep regression.
pub struct UaeQ {
    featurizer: Featurizer,
    model: Mlp,
}

impl UaeQ {
    /// Trains on the workload.
    pub fn fit(db: &Database, train: &TrainingSet, cfg: &UaeConfig) -> UaeQ {
        let featurizer = Featurizer::fit(db);
        let (xs, ys) = train.features(db, &featurizer);
        let mut model = Mlp::new(&[featurizer.dim(), HIDDEN1, HIDDEN2, 1], cfg.seed ^ 0xAE);
        model.train_regression(&xs, &ys, cfg.epochs, LR, cfg.seed);
        UaeQ { featurizer, model }
    }
}

impl CardEst for UaeQ {
    fn name(&self) -> &'static str {
        "UAE-Q"
    }

    /// The one-row case of [`CardEst::estimate_batch`].
    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.estimate_batch(db, std::slice::from_ref(sub))[0]
    }

    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        let mut out = vec![0.0; subs.len()];
        mlp_estimates(db, &self.featurizer, &self.model, subs, &mut out);
        out
    }

    fn batch_leverage(&self) -> bool {
        true
    }

    fn model_size_bytes(&self) -> usize {
        self.model.param_bytes()
    }
}

/// UAE: query features + data-derived selectivity features.
pub struct Uae {
    featurizer: Featurizer,
    hists: PostgresEst,
    model: Mlp,
    n_tables: usize,
}

impl Uae {
    /// Trains on the workload plus histogram statistics of the data.
    pub fn fit(db: &Database, train: &TrainingSet, cfg: &UaeConfig) -> Uae {
        let featurizer = Featurizer::fit(db);
        let n_tables = db.catalog().table_count();
        let dim = featurizer.dim() + n_tables;
        let mut uae = Uae {
            featurizer,
            hists: PostgresEst::fit(db),
            model: Mlp::new(&[dim, HIDDEN1, HIDDEN2, 1], cfg.seed ^ 0xEA),
            n_tables,
        };
        let mut scratch = InferScratch::default();
        uae.featurize(db, train.queries.iter(), &mut scratch);
        let mut xs = Matrix::zeros(0, dim);
        xs.rows = train.queries.len();
        scratch.rows.scatter_dense(dim, &mut xs.data);
        let ys: Vec<f32> = train.cards.iter().map(|&c| card_to_label(c)).collect();
        uae.model
            .train_regression(&xs, &ys, cfg.epochs, LR, cfg.seed);
        uae
    }

    /// Featurizes every query as one row of `scratch.rows`: the query
    /// features, then per table its histogram selectivity (the "data
    /// information" channel; 0 for a table the query does not touch).
    fn featurize<'q>(
        &self,
        db: &Database,
        queries: impl Iterator<Item = &'q JoinQuery>,
        scratch: &mut InferScratch,
    ) {
        let InferScratch {
            feat,
            rows,
            dense: sels,
            ..
        } = scratch;
        let base = self.featurizer.dim() as u32;
        rows.clear();
        for q in queries {
            self.featurizer.push_row(db, q, feat, rows);
            sels.clear();
            sels.resize(self.n_tables, 0.0);
            if let Ok(bound) = BoundQuery::bind(q, db.catalog()) {
                for bt in &bound.tables {
                    let preds: Vec<(usize, &Region)> = bt
                        .predicates
                        .iter()
                        .map(|p| (p.column, &p.region))
                        .collect();
                    sels[bt.id.0] = self.hists.table_selectivity(bt.id, &preds) as f32;
                }
            }
            for (t, &sel) in sels.iter().enumerate() {
                rows.push(base + t as u32, sel);
            }
            rows.end_row();
        }
    }
}

impl CardEst for Uae {
    fn name(&self) -> &'static str {
        "UAE"
    }

    /// The one-row case of [`CardEst::estimate_batch`].
    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.estimate_batch(db, std::slice::from_ref(sub))[0]
    }

    /// One sparse forward pass over the augmented feature rows of the
    /// sub-plan set; a row's output does not depend on the rest of the
    /// batch.
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        with_scratch(|scratch| {
            self.featurize(db, subs.iter().map(|sub| &sub.query), scratch);
            let labels = self.model.forward_sparse(&scratch.rows, &mut scratch.mlp);
            labels.iter().map(|&label| label_to_card(label)).collect()
        })
    }

    fn batch_leverage(&self) -> bool {
        true
    }

    fn model_size_bytes(&self) -> usize {
        self.model.param_bytes() + self.hists.model_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_datagen::{stats_catalog, StatsConfig};
    use cardbench_query::{JoinQuery, Predicate, TableMask};

    fn db_and_train() -> (Database, TrainingSet) {
        let db = Database::new(stats_catalog(&StatsConfig::tiny(1)));
        let users = db.catalog().table_by_name("users").unwrap();
        let rep = users.column_by_name("Reputation").unwrap();
        let mut queries = Vec::new();
        let mut cards = Vec::new();
        for k in (0..40).map(|i| i * 40) {
            queries.push(JoinQuery::single(
                "users",
                vec![Predicate::new(0, "Reputation", Region::le(k))],
            ));
            cards.push(
                (0..users.row_count())
                    .filter(|&r| rep.get(r).is_some_and(|v| v <= k))
                    .count() as f64,
            );
        }
        (db, TrainingSet { queries, cards })
    }

    #[test]
    fn uae_q_fits_training_distribution() {
        let (db, train) = db_and_train();
        let est = UaeQ::fit(
            &db,
            &train,
            &UaeConfig {
                epochs: 50,
                ..UaeConfig::default()
            },
        );
        let i = 20;
        let truth = train.cards[i].max(1.0);
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: train.queries[i].clone(),
        };
        let e = est.estimate(&db, &sub).max(1.0);
        let qerr = (e / truth).max(truth / e);
        assert!(qerr < 3.0, "qerr {qerr}");
    }

    #[test]
    fn uae_uses_data_channel() {
        let (db, train) = db_and_train();
        let est = Uae::fit(
            &db,
            &train,
            &UaeConfig {
                epochs: 50,
                ..UaeConfig::default()
            },
        );
        let i = 30;
        let truth = train.cards[i].max(1.0);
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: train.queries[i].clone(),
        };
        let e = est.estimate(&db, &sub).max(1.0);
        let qerr = (e / truth).max(truth / e);
        assert!(qerr < 3.0, "qerr {qerr}");
    }
}
