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
use cardbench_query::{BoundQuery, Region, SubPlanQuery};

use crate::featurize::{card_to_label, label_to_card, Featurizer};
use crate::lw::TrainingSet;
use crate::postgres::PostgresEst;
use crate::CardEst;

/// Shared configuration.
#[derive(Debug, Clone)]
pub struct UaeConfig {
    /// First hidden width.
    pub hidden1: usize,
    /// Second hidden width.
    pub hidden2: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Seed.
    pub seed: u64,
}

impl Default for UaeConfig {
    fn default() -> Self {
        UaeConfig {
            hidden1: 128,
            hidden2: 64,
            epochs: 30,
            lr: 0.002,
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
        let mut model = Mlp::new(
            &[featurizer.dim(), cfg.hidden1, cfg.hidden2, 1],
            cfg.seed ^ 0xAE,
        );
        model.train_regression(&xs, &ys, cfg.epochs, cfg.lr, cfg.seed);
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

    /// One batched forward pass over the featurized sub-plan set; rows of
    /// `forward_batch` do not depend on each other.
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        let xs = self
            .featurizer
            .dense_rows(db, subs.iter().map(|sub| &sub.query));
        let out = self.model.forward_batch(&xs);
        (0..subs.len())
            .map(|r| label_to_card(out.get(r, 0)))
            .collect()
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
        let hists = PostgresEst::fit(db);
        let n_tables = db.catalog().table_count();
        let dim = featurizer.dim() + n_tables;
        let mut xs = Matrix::zeros(train.queries.len(), dim);
        for (r, q) in train.queries.iter().enumerate() {
            let v = data_augmented_features(db, &featurizer, &hists, n_tables, q);
            for (c, &val) in v.iter().enumerate() {
                xs.set(r, c, val);
            }
        }
        let ys: Vec<f32> = train.cards.iter().map(|&c| card_to_label(c)).collect();
        let mut model = Mlp::new(&[dim, cfg.hidden1, cfg.hidden2, 1], cfg.seed ^ 0xEA);
        model.train_regression(&xs, &ys, cfg.epochs, cfg.lr, cfg.seed);
        Uae {
            featurizer,
            hists,
            model,
            n_tables,
        }
    }
}

/// Query features with per-table histogram selectivities appended (the
/// "data information" channel).
fn data_augmented_features(
    db: &Database,
    featurizer: &Featurizer,
    hists: &PostgresEst,
    n_tables: usize,
    q: &cardbench_query::JoinQuery,
) -> Vec<f32> {
    let mut v = featurizer.dense_rows(db, std::iter::once(q)).data;
    let mut sels = vec![0.0f32; n_tables];
    if let Ok(bound) = BoundQuery::bind(q, db.catalog()) {
        for bt in &bound.tables {
            let preds: Vec<(usize, &Region)> = bt
                .predicates
                .iter()
                .map(|p| (p.column, &p.region))
                .collect();
            sels[bt.id.0] = hists.table_selectivity(bt.id, &preds) as f32;
        }
    }
    v.extend(sels);
    v
}

impl CardEst for Uae {
    fn name(&self) -> &'static str {
        "UAE"
    }

    /// The one-row case of [`CardEst::estimate_batch`].
    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.estimate_batch(db, std::slice::from_ref(sub))[0]
    }

    /// Builds the augmented feature matrix for the whole sub-plan set and
    /// runs one batched forward pass; rows of `forward_batch` do not
    /// depend on each other.
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        let dim = self.featurizer.dim() + self.n_tables;
        let mut xs = Matrix::zeros(subs.len(), dim);
        for (r, sub) in subs.iter().enumerate() {
            let v = data_augmented_features(
                db,
                &self.featurizer,
                &self.hists,
                self.n_tables,
                &sub.query,
            );
            xs.data[r * xs.cols..(r + 1) * xs.cols].copy_from_slice(&v);
        }
        let out = self.model.forward_batch(&xs);
        (0..subs.len())
            .map(|r| label_to_card(out.get(r, 0)))
            .collect()
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
