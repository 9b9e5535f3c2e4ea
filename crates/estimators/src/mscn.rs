//! MSCN (Kipf et al.): multi-set convolutional network.
//!
//! The original model embeds each set element (table / join / predicate)
//! with a small per-module network, average-pools per module, then feeds
//! the concatenation to a final network. We keep the pooled-set
//! architecture but use fixed random ReLU projections as the per-element
//! embeddings (training only the head) — see DESIGN.md; the behavioural
//! properties the paper measures (workload-shift sensitivity, hunger for
//! training queries) come from the query-driven regime, not the exact
//! embedding parameterization.

use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};

use cardbench_engine::Database;
use cardbench_ml::mlp::sparse_affine;
use cardbench_ml::{Matrix, Mlp};
use cardbench_query::SubPlanQuery;

use crate::featurize::{card_to_label, label_to_card, Featurizer};
use crate::lw::TrainingSet;
use crate::scratch::{with_scratch, InferScratch};
use crate::CardEst;

/// Learning rate.
const LR: f32 = 0.003;

/// MSCN hyper-parameters.
#[derive(Debug, Clone)]
pub struct MscnConfig {
    /// Per-module embedding width.
    pub embed: usize,
    /// Head hidden width.
    pub hidden: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Seed.
    pub seed: u64,
}

impl Default for MscnConfig {
    fn default() -> Self {
        MscnConfig {
            embed: 32,
            hidden: 64,
            epochs: 25,
            seed: 0,
        }
    }
}

/// The MSCN estimator.
pub struct Mscn {
    featurizer: Featurizer,
    /// Fixed random projections of the three modules (tables / joins /
    /// predicates) stacked into one `dim × embed` matrix: row = feature
    /// slot, so a module's inputs select rows of its own block and a
    /// sparse feature row reads only the rows of its non-zero slots.
    proj: Matrix,
    head: Mlp,
    cfg: MscnConfig,
    /// Retained training workload — updating a query-driven model means
    /// re-executing it for fresh labels (paper O9).
    train: TrainingSet,
}

impl Mscn {
    /// Trains on the workload.
    pub fn fit(db: &Database, train: &TrainingSet, cfg: &MscnConfig) -> Mscn {
        let featurizer = Featurizer::fit(db);
        let (st, sj, sp) = featurizer.segments();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut proj = Matrix::zeros(0, cfg.embed);
        for inp in [st, sj, sp] {
            let scale = (2.0 / inp.max(1) as f32).sqrt();
            proj.data.extend(
                std::iter::repeat_with(|| (rng.gen::<f32>() - 0.5) * 2.0 * scale)
                    .take(inp * cfg.embed),
            );
            proj.rows += inp;
        }
        let mut mscn = Mscn {
            featurizer,
            proj,
            head: Mlp::new(&[3 * cfg.embed, cfg.hidden, 1], cfg.seed ^ 0x11),
            cfg: cfg.clone(),
            train: train.clone(),
        };
        let mut scratch = InferScratch::default();
        mscn.featurizer.push_rows(
            db,
            train.queries.iter(),
            &mut scratch.feat,
            &mut scratch.rows,
        );
        mscn.pool(&mut scratch);
        let mut xs = Matrix::zeros(0, 3 * cfg.embed);
        xs.rows = train.queries.len();
        scratch.pooled.scatter_dense(xs.cols, &mut xs.data);
        let ys: Vec<f32> = train.cards.iter().map(|&c| card_to_label(c)).collect();
        mscn.head
            .train_regression(&xs, &ys, cfg.epochs, LR, cfg.seed ^ 0x22);
        mscn
    }

    /// Pools every feature row of `scratch.rows` into a row of
    /// `scratch.pooled`: per module `ReLU(segment · proj)`, the pooled
    /// set embedding, each output summed over the segment's non-zero
    /// slots in ascending order.
    fn pool(&self, scratch: &mut InferScratch) {
        let (st, sj, sp) = self.featurizer.segments();
        let ends = [st, st + sj, st + sj + sp];
        let embed = self.cfg.embed;
        let InferScratch {
            rows,
            pooled,
            dense: module,
            ..
        } = scratch;
        pooled.clear();
        module.clear();
        module.resize(embed, 0.0);
        for r in 0..rows.len() {
            let (idx, val) = rows.row(r);
            let mut lo = 0;
            for (m, &end) in ends.iter().enumerate() {
                let hi = lo + idx[lo..].partition_point(|&slot| (slot as usize) < end);
                sparse_affine(
                    &self.proj.data,
                    embed,
                    None,
                    &idx[lo..hi],
                    &val[lo..hi],
                    module,
                );
                pooled.push_relu((m * embed) as u32, module);
                lo = hi;
            }
            pooled.end_row();
        }
    }

    /// Featurizes and pools every sub-plan, then runs one batched head
    /// forward pass; a sub-plan's output does not depend on the rest of
    /// the batch.
    fn estimate_into(&self, db: &Database, subs: &[SubPlanQuery], out: &mut [f64]) {
        with_scratch(|scratch| {
            crate::lw::featurize_batch(db, &self.featurizer, subs, scratch);
            self.pool(scratch);
            let labels = self.head.forward_sparse(&scratch.pooled, &mut scratch.mlp);
            for (o, &label) in out.iter_mut().zip(labels) {
                *o = label_to_card(label);
            }
        })
    }
}

impl CardEst for Mscn {
    fn name(&self) -> &'static str {
        "MSCN"
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
        self.head.param_bytes() + self.proj.heap_size()
    }

    /// Retrains on the retained workload, [`TrainingSet::relabelled`].
    fn apply_inserts(&mut self, db: &Database, _delta: &[cardbench_storage::Table]) {
        *self = Mscn::fit(db, &self.train.relabelled(db), &self.cfg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_datagen::{stats_catalog, StatsConfig};
    use cardbench_query::{JoinQuery, Predicate, Region, TableMask};

    #[test]
    fn learns_simple_workload() {
        let db = Database::new(stats_catalog(&StatsConfig::tiny(1)));
        let users = db.catalog().table_by_name("users").unwrap();
        let rep = users.column_by_name("Reputation").unwrap();
        let mut queries = Vec::new();
        let mut cards = Vec::new();
        for k in (0..50).map(|i| i * 30) {
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
        let train = TrainingSet { queries, cards };
        let est = Mscn::fit(
            &db,
            &train,
            &MscnConfig {
                epochs: 60,
                ..MscnConfig::default()
            },
        );
        let i = 25;
        let truth = train.cards[i].max(1.0);
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: train.queries[i].clone(),
        };
        let e = est.estimate(&db, &sub).max(1.0);
        let qerr = (e / truth).max(truth / e);
        assert!(qerr < 3.0, "qerr {qerr} (est {e}, true {truth})");
    }

    #[test]
    fn pooled_rows_span_three_embeds() {
        let db = Database::new(stats_catalog(&StatsConfig::tiny(2)));
        let train = TrainingSet {
            queries: vec![JoinQuery::single("users", vec![])],
            cards: vec![10.0],
        };
        let cfg = MscnConfig {
            epochs: 1,
            ..MscnConfig::default()
        };
        let est = Mscn::fit(&db, &train, &cfg);
        assert_eq!(est.proj.rows, est.featurizer.dim());
        let mut scratch = InferScratch::default();
        est.featurizer
            .push_row(&db, &train.queries[0], &mut scratch.feat, &mut scratch.rows);
        scratch.rows.end_row();
        est.pool(&mut scratch);
        // Only the table one-hot is set: the join and predicate modules
        // pool to zero, and every kept entry passed a ReLU.
        let (idx, val) = scratch.pooled.row(0);
        assert!(!idx.is_empty());
        assert!(idx.iter().all(|&o| (o as usize) < cfg.embed));
        assert!(val.iter().all(|&v| v > 0.0));
    }
}
