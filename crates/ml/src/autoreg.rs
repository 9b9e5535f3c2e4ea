//! Discrete autoregressive density model with progressive sampling (the
//! NeuroCard/Naru/UAE substrate).
//!
//! The joint over binned columns factorizes by the chain rule
//! `P(x) = P(x_1) Π P(x_i | x_<i)`; each conditional is a small MLP with
//! a softmax head taking the normalized prefix bins as input. Range
//! queries are answered by progressive sampling (Naru/Liang et al.):
//! walk the columns in order, multiply in the constrained mass of each
//! conditional, and sample a concrete bin to condition the next column.

use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::Rng;

use crate::matrix::{Matrix, SparseRows};
use crate::mlp::{softmax, Mlp, MlpScratch};
use crate::weights::WeightBatch;

/// Hidden width of each conditional MLP.
const HIDDEN: usize = 32;
/// Adam learning rate.
const LR: f32 = 0.01;
/// Seed of every conditional's training order; column `i`'s weights are
/// seeded by `i`.
const TRAIN_SEED: u64 = 0x5eed;

/// Autoregressive model configuration.
#[derive(Debug, Clone)]
pub struct ArConfig {
    /// Training epochs over the data sample.
    pub epochs: usize,
    /// Progressive samples per query.
    pub samples: usize,
}

impl Default for ArConfig {
    fn default() -> Self {
        ArConfig {
            epochs: 2,
            samples: 200,
        }
    }
}

/// The learned model.
#[derive(Debug, Clone)]
pub struct AutoRegModel {
    bins: Vec<usize>,
    /// Marginal counts of the first column.
    marginal0: Vec<f64>,
    /// `mlps[i-1]` models `P(x_i | x_<i)` for `i >= 1`.
    mlps: Vec<Mlp>,
    cfg: ArConfig,
}

impl AutoRegModel {
    /// Fits the model to binned columns.
    pub fn fit(cols: &[Vec<u16>], bins: &[usize], cfg: ArConfig) -> AutoRegModel {
        assert_eq!(cols.len(), bins.len());
        assert!(!cols.is_empty());
        let n = cols[0].len();
        let mut marginal0 = vec![0.0; bins[0]];
        for &b in &cols[0] {
            marginal0[b as usize] += 1.0;
        }
        let mut mlps = Vec::with_capacity(cols.len().saturating_sub(1));
        for i in 1..cols.len() {
            let xs = Matrix::from_fn(n, i, |r, c| cols[c][r] as f32 / bins[c].max(1) as f32);
            let labels: Vec<usize> = cols[i].iter().map(|&b| b as usize).collect();
            let mut net = Mlp::new(&[i, HIDDEN, bins[i]], i as u64);
            net.train_softmax(&xs, &labels, cfg.epochs, LR, TRAIN_SEED);
            mlps.push(net);
        }
        AutoRegModel {
            bins: bins.to_vec(),
            marginal0,
            mlps,
            cfg,
        }
    }

    /// Number of columns.
    pub fn column_count(&self) -> usize {
        self.bins.len()
    }

    /// `E[Π_i w_i(X_i)]` by progressive sampling for every item of
    /// `batch`, in order. The items run in lockstep — sample-major, then
    /// column-major, with items innermost — so each column's conditionals
    /// for all still-active items are one [`Mlp::forward_sparse`] call.
    /// `rngs[j]` is item `j`'s own generator: the item draws from it at
    /// exactly the `(sample, column)` points a walk of that item alone
    /// would, so an answer and the generator's final state do not depend
    /// on what else is in the batch.
    pub fn query_batch(&self, batch: &WeightBatch, rngs: &mut [StdRng]) -> Vec<f64> {
        assert_eq!(batch.cols(), self.bins.len());
        assert_eq!(batch.len(), rngs.len());
        let n = batch.len();
        let k = self.bins.len();
        let total: f64 = self.marginal0.iter().sum();
        let dist0: Vec<f64> = self
            .marginal0
            .iter()
            .map(|&c| (c + 0.1) / (total + 0.1 * self.bins[0] as f64))
            .collect();
        let mut totals = vec![0.0f64; n];
        let mut prefixes: Vec<Vec<f32>> = vec![Vec::with_capacity(k); n];
        let mut ws = vec![1.0f64; n];
        let mut active = vec![true; n];
        let mut act = Vec::with_capacity(n);
        let mut dist: Vec<f64> = Vec::new();
        let mut rows = SparseRows::default();
        let mut mlp = MlpScratch::default();
        for _ in 0..self.cfg.samples {
            for p in &mut prefixes {
                p.clear();
            }
            ws.fill(1.0);
            active.fill(true);
            for j in 0..n {
                dist.clone_from(&dist0);
                self.advance_item(
                    0,
                    batch.get(j, 0),
                    &mut dist,
                    &mut ws[j],
                    &mut active[j],
                    &mut prefixes[j],
                    &mut rngs[j],
                );
            }
            for i in 1..k {
                act.clear();
                act.extend((0..n).filter(|&j| active[j]));
                if act.is_empty() {
                    break;
                }
                rows.clear();
                for &j in &act {
                    for (c, &v) in prefixes[j].iter().enumerate() {
                        rows.push(c as u32, v);
                    }
                    rows.end_row();
                }
                let logits = self.mlps[i - 1].forward_sparse(&rows, &mut mlp);
                for (row, &j) in logits.chunks_exact(self.bins[i]).zip(&act) {
                    dist.clear();
                    dist.extend(softmax(row).iter().map(|&p| p as f64));
                    self.advance_item(
                        i,
                        batch.get(j, i),
                        &mut dist,
                        &mut ws[j],
                        &mut active[j],
                        &mut prefixes[j],
                        &mut rngs[j],
                    );
                }
            }
            for j in 0..n {
                if active[j] {
                    totals[j] += ws[j];
                }
            }
        }
        totals
            .into_iter()
            .map(|t| t / self.cfg.samples as f64)
            .collect()
    }

    /// One item's step at column `i`: fold the constrained mass of the
    /// conditional `dist` into `w` (an item without mass goes inactive),
    /// sample a bin ∝ p·w — importance sampling keeps the estimator
    /// unbiased for the product of weights — and extend the prefix.
    /// `dist` is consumed.
    #[allow(clippy::too_many_arguments)] // lockstep state is inherently wide
    fn advance_item(
        &self,
        i: usize,
        weights: Option<&[f64]>,
        dist: &mut [f64],
        w: &mut f64,
        active: &mut bool,
        prefix: &mut Vec<f32>,
        rng: &mut StdRng,
    ) {
        let mass: f64 = match weights {
            None => 1.0,
            Some(wv) => dist.iter().zip(wv).map(|(p, wv)| p * wv).sum(),
        };
        if mass <= 0.0 {
            *active = false;
            return;
        }
        *w *= mass;
        let bin = match weights {
            None => sample_from(dist, 1.0, rng),
            Some(wv) => {
                for (p, wv) in dist.iter_mut().zip(wv) {
                    *p *= wv;
                }
                sample_from(dist, mass, rng)
            }
        };
        prefix.push(bin as f32 / self.bins[i].max(1) as f32);
    }

    /// Approximate model size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.marginal0.len() * 8 + self.mlps.iter().map(Mlp::param_bytes).sum::<usize>()
    }
}

fn sample_from(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let u = rng.gen::<f64>() * total;
    let mut acc = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        acc += w;
        if u <= acc {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::tests::batch_of;
    use cardbench_support::rand::SeedableRng;

    /// Reference: one item alone, sample by sample and column by column,
    /// each conditional a per-row [`Mlp::forward`] — the walk
    /// [`AutoRegModel::query_batch`] must reproduce bit for bit, RNG
    /// state included.
    fn reference(m: &AutoRegModel, weights: &[Option<Vec<f64>>], rng: &mut StdRng) -> f64 {
        let mut total = 0.0;
        for _ in 0..m.cfg.samples {
            total += one_sample(m, weights, rng);
        }
        total / m.cfg.samples as f64
    }

    fn one_sample(m: &AutoRegModel, weights: &[Option<Vec<f64>>], rng: &mut StdRng) -> f64 {
        let mut prefix = Vec::new();
        let mut w = 1.0f64;
        let mut dist: Vec<f64> = Vec::new();
        for i in 0..m.bins.len() {
            // Conditional distribution of column i.
            dist.clear();
            if i == 0 {
                let total: f64 = m.marginal0.iter().sum();
                dist.extend(
                    m.marginal0
                        .iter()
                        .map(|&c| (c + 0.1) / (total + 0.1 * m.bins[0] as f64)),
                );
            } else {
                let probs = softmax(&m.mlps[i - 1].forward(&prefix));
                dist.extend(probs.iter().map(|&p| p as f64));
            }
            let mass: f64 = match &weights[i] {
                None => 1.0,
                Some(wv) => dist.iter().zip(wv).map(|(p, wv)| p * wv).sum(),
            };
            if mass <= 0.0 {
                return 0.0;
            }
            w *= mass;
            let bin = match &weights[i] {
                None => sample_from(&dist, 1.0, rng),
                Some(wv) => {
                    for (p, wv) in dist.iter_mut().zip(wv) {
                        *p *= wv;
                    }
                    sample_from(&dist, mass, rng)
                }
            };
            prefix.push(bin as f32 / m.bins[i].max(1) as f32);
        }
        w
    }

    /// [`AutoRegModel::query_batch`] of one weight set.
    fn query(m: &AutoRegModel, weights: &[Option<Vec<f64>>], rng: &mut StdRng) -> f64 {
        let batch = batch_of(weights.len(), &[weights]);
        m.query_batch(&batch, std::slice::from_mut(rng))[0]
    }

    fn fit_simple() -> AutoRegModel {
        // Two perfectly correlated ternary columns.
        let a: Vec<u16> = (0..600).map(|i| (i % 3) as u16).collect();
        let b = a.clone();
        AutoRegModel::fit(
            &[a, b],
            &[3, 3],
            ArConfig {
                epochs: 12,
                samples: 400,
            },
        )
    }

    fn indicator(bins: usize, allowed: &[usize]) -> Option<Vec<f64>> {
        let mut w = vec![0.0; bins];
        for &a in allowed {
            w[a] = 1.0;
        }
        Some(w)
    }

    #[test]
    fn marginal_close_to_third() {
        let m = fit_simple();
        let mut rng = StdRng::seed_from_u64(5);
        let p = query(&m, &[indicator(3, &[0]), None], &mut rng);
        assert!((p - 1.0 / 3.0).abs() < 0.05, "p = {p}");
    }

    #[test]
    fn learns_correlation() {
        let m = fit_simple();
        let mut rng = StdRng::seed_from_u64(6);
        // P(a=0 ∧ b=0) ≈ 1/3 (not 1/9) because b == a.
        let p_same = query(&m, &[indicator(3, &[0]), indicator(3, &[0])], &mut rng);
        let p_diff = query(&m, &[indicator(3, &[0]), indicator(3, &[1])], &mut rng);
        assert!(p_same > 3.0 * p_diff, "same {p_same} diff {p_diff}");
    }

    #[test]
    fn unconstrained_query_is_one() {
        let m = fit_simple();
        let mut rng = StdRng::seed_from_u64(7);
        assert!((query(&m, &[None, None], &mut rng) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn impossible_region_is_zero() {
        let m = fit_simple();
        let mut rng = StdRng::seed_from_u64(8);
        let w = vec![Some(vec![0.0, 0.0, 0.0]), None];
        assert_eq!(query(&m, &w, &mut rng), 0.0);
    }

    #[test]
    fn size_accounting() {
        let m = fit_simple();
        assert!(m.size_bytes() > 100);
    }

    #[test]
    fn query_batch_bit_identical_with_rng_lockstep() {
        let m = AutoRegModel::fit(
            &[
                (0..200).map(|i| (i % 3) as u16).collect(),
                (0..200).map(|i| ((i / 2) % 3) as u16).collect(),
            ],
            &[3, 3],
            ArConfig {
                epochs: 2,
                samples: 23,
            },
        );
        let queries: Vec<Vec<Option<Vec<f64>>>> = vec![
            vec![None, None],
            vec![indicator(3, &[0]), None],
            vec![indicator(3, &[0, 2]), indicator(3, &[1])],
            vec![Some(vec![0.0, 0.0, 0.0]), None], // goes inactive at col 0
            vec![None, indicator(3, &[2])],
        ];
        let sets: Vec<&[Option<Vec<f64>>]> = queries.iter().map(Vec::as_slice).collect();
        let mut batch_rngs: Vec<StdRng> = (0..queries.len())
            .map(|j| StdRng::seed_from_u64(90 + j as u64))
            .collect();
        let batched = m.query_batch(&batch_of(2, &sets), &mut batch_rngs);
        for (j, q) in queries.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(90 + j as u64);
            let single = reference(&m, q, &mut rng);
            assert_eq!(single.to_bits(), batched[j].to_bits(), "query {j}");
            // The generator must land in the same state, so later queries
            // sharing it stay deterministic too.
            assert_eq!(
                rng.gen::<u64>(),
                batch_rngs[j].gen::<u64>(),
                "rng state diverged for query {j}"
            );
        }
    }
}
