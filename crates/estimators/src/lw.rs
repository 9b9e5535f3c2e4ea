//! LW-XGB and LW-NN (Dutt et al.): lightweight regression models over
//! featurized queries, extended to joins through the shared schema-wide
//! featurization (the paper extends the original single-table models the
//! same way).

use cardbench_engine::Database;
use cardbench_ml::gbdt::GbdtConfig;
use cardbench_ml::{Gbdt, Matrix, Mlp};
use cardbench_query::{JoinQuery, SubPlanQuery};

use crate::featurize::{card_to_label, label_to_card, Featurizer};
use crate::scratch::{with_scratch, InferScratch};
use crate::CardEst;

/// A labelled training workload for the query-driven estimators.
#[derive(Debug, Clone, Default)]
pub struct TrainingSet {
    /// Training queries.
    pub queries: Vec<JoinQuery>,
    /// True cardinalities aligned with `queries`.
    pub cards: Vec<f64>,
}

impl TrainingSet {
    /// Featurizes the whole set.
    pub fn features(&self, db: &Database, f: &Featurizer) -> (Matrix, Vec<f32>) {
        let xs = f.dense_rows(db, self.queries.iter());
        let ys: Vec<f32> = self.cards.iter().map(|&c| card_to_label(c)).collect();
        (xs, ys)
    }

    /// The same queries, each relabelled by executing it on `db`; a query
    /// that fails to execute keeps its old label. A query-driven model's
    /// update retrains on this, the cost the paper's O9 calls
    /// impractical for dynamic databases.
    pub fn relabelled(&self, db: &Database) -> TrainingSet {
        let mut train = self.clone();
        for (q, card) in train.queries.iter().zip(train.cards.iter_mut()) {
            *card = cardbench_engine::exact_cardinality(db, q).unwrap_or(*card);
        }
        train
    }
}

/// Featurizes every sub-plan into `scratch.rows`, one sparse row each.
pub(crate) fn featurize_batch(
    db: &Database,
    f: &Featurizer,
    subs: &[SubPlanQuery],
    scratch: &mut InferScratch,
) {
    let queries = subs.iter().map(|sub| &sub.query);
    f.push_rows(db, queries, &mut scratch.feat, &mut scratch.rows);
}

/// The estimates of an MLP over query features (LW-NN, UAE-Q) into
/// `out`: one sparse forward pass over the featurized sub-plans; a row's
/// output does not depend on the rest of the batch.
pub(crate) fn mlp_estimates(
    db: &Database,
    f: &Featurizer,
    model: &Mlp,
    subs: &[SubPlanQuery],
    out: &mut [f64],
) {
    with_scratch(|scratch| {
        featurize_batch(db, f, subs, scratch);
        let labels = model.forward_sparse(&scratch.rows, &mut scratch.mlp);
        for (o, &label) in out.iter_mut().zip(labels) {
            *o = label_to_card(label);
        }
    })
}

/// LW-XGB: gradient-boosted trees on query features.
pub struct LwXgb {
    featurizer: Featurizer,
    model: Gbdt,
}

impl LwXgb {
    /// Trains on the workload.
    pub fn fit(db: &Database, train: &TrainingSet, cfg: &GbdtConfig) -> LwXgb {
        let featurizer = Featurizer::fit(db);
        let (xs, ys) = train.features(db, &featurizer);
        LwXgb {
            model: Gbdt::fit(&xs, &ys, cfg),
            featurizer,
        }
    }
}

impl CardEst for LwXgb {
    fn name(&self) -> &'static str {
        "LW-XGB"
    }

    /// The one-row case of [`CardEst::estimate_batch`].
    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        let mut out = [0.0];
        self.estimate_into(db, std::slice::from_ref(sub), &mut out);
        out[0]
    }

    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        let mut out = vec![0.0; subs.len()];
        self.estimate_into(db, subs, &mut out);
        out
    }

    fn batch_leverage(&self) -> bool {
        true
    }

    fn model_size_bytes(&self) -> usize {
        self.model.size_bytes()
    }
}

impl LwXgb {
    /// Featurizes the sub-plans into dense rows (the trees index
    /// features at random) and walks the ensemble once per tree, not
    /// once per sub-plan; a row's prediction does not depend on the rest
    /// of the batch.
    fn estimate_into(&self, db: &Database, subs: &[SubPlanQuery], out: &mut [f64]) {
        with_scratch(|scratch| {
            featurize_batch(db, &self.featurizer, subs, scratch);
            let dim = self.featurizer.dim();
            scratch.rows.scatter_dense(dim, &mut scratch.dense);
            scratch.preds.clear();
            scratch.preds.resize(subs.len(), 0.0);
            self.model
                .predict_into(&scratch.dense, dim, &mut scratch.preds);
            for (o, &label) in out.iter_mut().zip(&scratch.preds) {
                *o = label_to_card(label);
            }
        })
    }
}

/// LW-NN: a plain MLP on query features.
pub struct LwNn {
    featurizer: Featurizer,
    model: Mlp,
    cfg: LwNnConfig,
    /// Retained training workload (see [`crate::mscn::Mscn`]'s update).
    train: TrainingSet,
}

/// LW-NN hidden width.
const LW_NN_HIDDEN: usize = 64;
/// LW-NN learning rate.
const LW_NN_LR: f32 = 0.003;

/// LW-NN hyper-parameters.
#[derive(Debug, Clone)]
pub struct LwNnConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for LwNnConfig {
    fn default() -> Self {
        LwNnConfig {
            epochs: 20,
            seed: 0,
        }
    }
}

impl LwNn {
    /// Trains on the workload.
    pub fn fit(db: &Database, train: &TrainingSet, cfg: &LwNnConfig) -> LwNn {
        let featurizer = Featurizer::fit(db);
        let (xs, ys) = train.features(db, &featurizer);
        let mut model = Mlp::new(&[featurizer.dim(), LW_NN_HIDDEN, 1], cfg.seed);
        model.train_regression(&xs, &ys, cfg.epochs, LW_NN_LR, cfg.seed ^ 0xAB);
        LwNn {
            featurizer,
            model,
            cfg: cfg.clone(),
            train: train.clone(),
        }
    }
}

impl CardEst for LwNn {
    fn name(&self) -> &'static str {
        "LW-NN"
    }

    /// The one-row case of [`CardEst::estimate_batch`].
    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        let mut out = [0.0];
        let subs = std::slice::from_ref(sub);
        mlp_estimates(db, &self.featurizer, &self.model, subs, &mut out);
        out[0]
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

    /// Retrains on the retained workload, [`TrainingSet::relabelled`].
    fn apply_inserts(&mut self, db: &Database, _delta: &[cardbench_storage::Table]) {
        *self = LwNn::fit(db, &self.train.relabelled(db), &self.cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_datagen::{stats_catalog, StatsConfig};
    use cardbench_query::{Predicate, Region, TableMask};

    /// Tiny single-table workload: count users with Reputation <= k.
    fn training(db: &Database) -> TrainingSet {
        let users = db.catalog().table_by_name("users").unwrap();
        let rep = users.column_by_name("Reputation").unwrap();
        let mut queries = Vec::new();
        let mut cards = Vec::new();
        for k in (0..60).map(|i| i * 25) {
            let q = JoinQuery::single(
                "users",
                vec![Predicate::new(0, "Reputation", Region::le(k))],
            );
            let card = (0..users.row_count())
                .filter(|&r| rep.get(r).is_some_and(|v| v <= k))
                .count() as f64;
            queries.push(q);
            cards.push(card);
        }
        TrainingSet { queries, cards }
    }

    #[test]
    fn xgb_learns_monotone_workload() {
        let db = Database::new(stats_catalog(&StatsConfig::tiny(1)));
        let train = training(&db);
        let est = LwXgb::fit(&db, &train, &GbdtConfig { rounds: 30 });
        // In-distribution prediction should be within 2× for mid-range k.
        let q = &train.queries[30];
        let truth = train.cards[30].max(1.0);
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: q.clone(),
        };
        let e = est.estimate(&db, &sub).max(1.0);
        let qerr = (e / truth).max(truth / e);
        assert!(qerr < 2.5, "qerr {qerr} (est {e}, true {truth})");
    }

    #[test]
    fn nn_learns_monotone_workload() {
        let db = Database::new(stats_catalog(&StatsConfig::tiny(1)));
        let train = training(&db);
        let est = LwNn::fit(
            &db,
            &train,
            &LwNnConfig {
                epochs: 60,
                ..LwNnConfig::default()
            },
        );
        let q = &train.queries[40];
        let truth = train.cards[40].max(1.0);
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: q.clone(),
        };
        let e = est.estimate(&db, &sub).max(1.0);
        let qerr = (e / truth).max(truth / e);
        assert!(qerr < 3.0, "qerr {qerr} (est {e}, true {truth})");
    }
}
