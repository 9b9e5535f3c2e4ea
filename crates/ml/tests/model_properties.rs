//! Property tests over the probabilistic models: indicator-weight
//! queries must behave like probabilities, and expectations must be
//! consistent with marginals, for arbitrary discrete datasets.
//!
//! And differential tests of the inference kernels against the plain
//! algorithms they replaced, which live here as references: a tree-BN
//! query that recomputes every conditional per term and walks every
//! node, a recursive SPN evaluation that divides counts per visit, and
//! the per-row MLP forward pass. The kernels read tables derived at
//! fit/update time, skip what a query does not constrain and tile their
//! loops — and must return the references' bits, before and after an
//! update, whatever else shares the batch.

use cardbench_support::proptest::prelude::*;

use cardbench_ml::autoreg::ArConfig;
use cardbench_ml::bayesnet::SMOOTHING;
use cardbench_ml::spn::{SpnConfig, SpnNode};
use cardbench_ml::{AutoRegModel, Matrix, Mlp, ModelScratch, Spn, TreeBayesNet, WeightBatch};

/// Deterministic pseudo-random stream for building test structures.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, m: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % m
    }

    /// Random binned columns.
    fn columns(&mut self, bins: &[usize], rows: usize) -> Vec<Vec<u16>> {
        let mut cols = vec![Vec::with_capacity(rows); bins.len()];
        for _ in 0..rows {
            let first = self.below(bins[0]);
            for (c, col) in cols.iter_mut().enumerate() {
                // Half of the cells follow column 0: something to learn.
                let v = if c > 0 && self.below(2) == 0 {
                    first % bins[c]
                } else {
                    self.below(bins[c])
                };
                col.push(v as u16);
            }
        }
        cols
    }

    /// A weight set: about a third of the columns unconstrained, the
    /// rest zero-heavy (filters are mostly indicator vectors), with
    /// fanout-like magnitudes and an occasional `-0.0`.
    fn weights(&mut self, bins: &[usize]) -> Vec<Option<Vec<f64>>> {
        bins.iter()
            .map(|&b| {
                (self.below(3) != 0).then(|| {
                    (0..b)
                        .map(|_| match self.below(8) {
                            0..=3 => 0.0,
                            4 => -0.0,
                            5 => 1.0,
                            _ => self.below(900) as f64 / 64.0,
                        })
                        .collect()
                })
            })
            .collect()
    }
}

/// Reference tree-BN inference over raw counts: every term recomputes
/// its conditional (row total included), and every node is visited.
struct ReferenceBn {
    parent: Vec<Option<usize>>,
    bins: Vec<usize>,
    /// `cpt[i][pb][cb]`.
    cpt: Vec<Vec<Vec<f64>>>,
}

impl ReferenceBn {
    fn new(parent: &[Option<usize>], bins: &[usize]) -> ReferenceBn {
        let cpt = (0..parent.len())
            .map(|i| vec![vec![0.0; bins[i]]; parent[i].map_or(1, |p| bins[p])])
            .collect();
        ReferenceBn {
            parent: parent.to_vec(),
            bins: bins.to_vec(),
            cpt,
        }
    }

    fn observe(&mut self, cols: &[Vec<u16>]) {
        for r in 0..cols[0].len() {
            for i in 0..self.parent.len() {
                let pb = self.parent[i].map_or(0, |p| cols[p][r] as usize);
                self.cpt[i][pb][cols[i][r] as usize] += 1.0;
            }
        }
    }

    fn cond(&self, i: usize, pb: usize, cb: usize) -> f64 {
        let row = &self.cpt[i][pb];
        let total: f64 = row.iter().sum();
        (row[cb] + SMOOTHING) / (total + SMOOTHING * self.bins[i] as f64)
    }

    fn query(&self, weights: &[Option<Vec<f64>>]) -> f64 {
        let k = self.parent.len();
        let children = |i: usize| (0..k).filter(move |&c| self.parent[c] == Some(i));
        // Parents before children, from a stack of the roots.
        let mut order = Vec::new();
        let mut stack: Vec<usize> = (0..k).filter(|&i| self.parent[i].is_none()).collect();
        while let Some(i) = stack.pop() {
            order.push(i);
            stack.extend(children(i));
        }
        let mut messages: Vec<Vec<f64>> = vec![Vec::new(); k];
        let mut result = 1.0;
        for &i in order.iter().rev() {
            let pbins = self.parent[i].map_or(1, |p| self.bins[p]);
            let mut msg = vec![0.0; pbins];
            for (pb, m) in msg.iter_mut().enumerate() {
                for cb in 0..self.bins[i] {
                    let w = weights[i].as_ref().map_or(1.0, |w| w[cb]);
                    if w == 0.0 {
                        continue;
                    }
                    let mut term = self.cond(i, pb, cb) * w;
                    for c in children(i) {
                        term *= messages[c][cb];
                    }
                    *m += term;
                }
            }
            if self.parent[i].is_none() {
                result *= msg[0];
            }
            messages[i] = msg;
        }
        result
    }
}

/// Reference SPN evaluation: recursion over the node views, totals and
/// divisions recomputed at every visit.
fn reference_spn(spn: &Spn, id: usize, weights: &[Option<Vec<f64>>]) -> f64 {
    match spn.node(id) {
        SpnNode::Sum { children, counts } => {
            let total: f64 = counts.iter().sum();
            let mut out = 0.0;
            if total > 0.0 {
                for (w, &c) in counts.iter().zip(children) {
                    out += w / total * reference_spn(spn, c as usize, weights);
                }
            }
            out
        }
        SpnNode::Product { children } => {
            let mut out = 1.0;
            for &c in children {
                out *= reference_spn(spn, c as usize, weights);
            }
            out
        }
        SpnNode::Leaf { col, counts } => {
            let Some(w) = &weights[col] else { return 1.0 };
            let total: f64 = counts.iter().sum();
            if total <= 0.0 {
                return 0.0;
            }
            counts.iter().zip(w).map(|(c, wv)| c / total * wv).sum()
        }
        SpnNode::MultiLeaf { cols, keys, counts } => {
            if cols.iter().all(|&c| weights[c].is_none()) {
                return 1.0;
            }
            let total: f64 = counts.iter().sum();
            let mut out = 0.0;
            if total > 0.0 {
                for (key, cnt) in keys.chunks_exact(cols.len()).zip(counts) {
                    let mut w = cnt / total;
                    for (&bin, &c) in key.iter().zip(cols) {
                        if let Some(wv) = &weights[c] {
                            w *= wv[bin as usize];
                        }
                    }
                    out += w;
                }
            }
            out
        }
    }
}

/// A batch holding `queries` shuffled and with duplicates, as
/// `(batch, source query of each item)`.
fn mixed_batch(
    rng: &mut Lcg,
    cols: usize,
    queries: &[Vec<Option<Vec<f64>>>],
) -> (WeightBatch, Vec<usize>) {
    let mut batch = WeightBatch::default();
    batch.reset(cols);
    let picks: Vec<usize> = (0..2 * queries.len())
        .map(|_| rng.below(queries.len()))
        .collect();
    for &q in &picks {
        batch.push_options(&queries[q]);
    }
    (batch, picks)
}

/// Random binned dataset: 3 columns with small domains.
fn dataset() -> impl Strategy<Value = (Vec<Vec<u16>>, Vec<usize>)> {
    (2usize..5, 2usize..5, 2usize..4, 20usize..120, any::<u64>()).prop_map(
        |(b0, b1, b2, n, seed)| {
            // Deterministic pseudo-random rows from the seed.
            let mut x = seed;
            let mut next = move |m: usize| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) as usize % m) as u16
            };
            let mut cols = vec![Vec::new(), Vec::new(), Vec::new()];
            for _ in 0..n {
                let a = next(b0);
                cols[0].push(a);
                // Column 1 correlates with column 0.
                cols[1].push(if next(2) == 0 {
                    (a as usize % b1) as u16
                } else {
                    next(b1)
                });
                cols[2].push(next(b2));
            }
            (cols, vec![b0, b1, b2])
        },
    )
}

fn indicator(bins: usize, allowed: u16) -> Option<Vec<f64>> {
    let mut w = vec![0.0; bins];
    w[allowed as usize] = 1.0;
    Some(w)
}

/// Empirical probability for cross-checking.
fn empirical(cols: &[Vec<u16>], constraint: &[(usize, u16)]) -> f64 {
    let n = cols[0].len();
    let hits = (0..n)
        .filter(|&r| constraint.iter().all(|&(c, v)| cols[c][r] == v))
        .count();
    hits as f64 / n as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// BN probabilities are in [0,1]; unconstrained queries are 1; the
    /// marginal matches the data within smoothing tolerance.
    #[test]
    fn bn_probabilities_behave((cols, bins) in dataset()) {
        let net = TreeBayesNet::fit(&cols, &bins);
        prop_assert!((net.query(&[None, None, None]) - 1.0).abs() < 1e-9);
        for v in 0..bins[0] as u16 {
            let p = net.probability(&[indicator(bins[0], v), None, None]);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
            let emp = empirical(&cols, &[(0, v)]);
            prop_assert!((p - emp).abs() < 0.1, "p {p} vs emp {emp}");
        }
    }

    /// SPN probabilities are in [0,1] and marginals track the data.
    #[test]
    fn spn_probabilities_behave((cols, bins) in dataset()) {
        let spn = Spn::fit(&cols, &bins, SpnConfig { min_rows: 16, ..SpnConfig::default() });
        prop_assert!((spn.query(&[None, None, None]) - 1.0).abs() < 1e-9);
        let mut total = 0.0;
        for v in 0..bins[1] as u16 {
            let p = spn.query(&[None, indicator(bins[1], v), None]);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
            total += p;
        }
        // Marginals over all bins sum to (near) one.
        prop_assert!((total - 1.0).abs() < 1e-6, "sum {total}");
    }

    /// FLAT-mode SPNs (multi-leaves) obey the same laws.
    #[test]
    fn multileaf_spn_probabilities_behave((cols, bins) in dataset()) {
        let spn = Spn::fit(
            &cols,
            &bins,
            SpnConfig { min_rows: 16, multileaf: true, ..SpnConfig::default() },
        );
        for v in 0..bins[0] as u16 {
            let p = spn.query(&[indicator(bins[0], v), None, None]);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
            let emp = empirical(&cols, &[(0, v)]);
            prop_assert!((p - emp).abs() < 0.12, "p {p} vs emp {emp}");
        }
    }

    /// AR progressive sampling returns probabilities; impossible regions
    /// are exactly zero.
    #[test]
    fn autoreg_probabilities_behave((cols, bins) in dataset()) {
        let ar = AutoRegModel::fit(
            &cols,
            &bins,
            ArConfig { epochs: 1, samples: 80, ..ArConfig::default() },
        );
        let mut rng = cardbench_support::rand::SeedableRng::seed_from_u64(5);
        let p = ar.query(&[indicator(bins[0], 0), None, None], &mut rng);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&p));
        let zero = ar.query(&[Some(vec![0.0; bins[0]]), None, None], &mut rng);
        prop_assert_eq!(zero, 0.0);
    }

    /// The flat BN query — normalised CPTs and free-subtree messages
    /// derived in `observe`, messages only for constrained nodes and
    /// their ancestors — returns the bits of the reference that
    /// recomputes every conditional and walks every node: for random
    /// forests, `None` patterns and zero-heavy weights, before and after
    /// an `observe`, alone and inside a mixed batch.
    #[test]
    fn flat_bn_query_matches_reference(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        let k = 2 + rng.below(6);
        // A random forest under a random labelling.
        let mut label: Vec<usize> = (0..k).collect();
        for i in (1..k).rev() {
            label.swap(i, rng.below(i + 1));
        }
        let mut parent = vec![None; k];
        for i in 1..k {
            if rng.below(5) != 0 {
                parent[label[i]] = Some(label[rng.below(i)]);
            }
        }
        let bins: Vec<usize> = (0..k).map(|_| 2 + rng.below(5)).collect();
        let mut net = TreeBayesNet::with_structure(parent.clone(), bins.clone());
        let mut reference = ReferenceBn::new(&parent, &bins);
        let mut scratch = ModelScratch::default();
        for rows in [0, 40 + rng.below(80), 1 + rng.below(30)] {
            let cols = rng.columns(&bins, rows);
            net.observe(&cols);
            reference.observe(&cols);
            let mut queries: Vec<_> = (0..6).map(|_| rng.weights(&bins)).collect();
            queries.push(vec![None; k]);
            for q in &queries {
                prop_assert_eq!(net.query(q).to_bits(), reference.query(q).to_bits(), "{:?}", q);
            }
            let (batch, picks) = mixed_batch(&mut rng, k, &queries);
            let mut out = Vec::new();
            net.query_batch(&batch, &mut scratch, &mut out);
            for (&q, v) in picks.iter().zip(&out) {
                prop_assert_eq!(v.to_bits(), reference.query(&queries[q]).to_bits());
            }
        }
    }

    /// The flat SPN/FSPN evaluation — one bottom-up pass over the node
    /// array reading derived probabilities, skipping nodes out of scope —
    /// returns the bits of the recursive reference that recomputes
    /// totals from the counts: for random structures and scope patterns,
    /// before and after an `update` (so every derived table was
    /// rebuilt), alone and inside a mixed batch.
    #[test]
    fn flat_spn_query_matches_reference(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        let k = 2 + rng.below(4);
        let bins: Vec<usize> = (0..k).map(|_| 2 + rng.below(4)).collect();
        let rows = 60 + rng.below(200);
        let cols = rng.columns(&bins, rows);
        let cfg = SpnConfig {
            min_rows: 8 + rng.below(40),
            multileaf: rng.below(2) == 0,
            dep_threshold: [0.05, 0.3][rng.below(2)],
            joint_threshold: [0.2, 0.7][rng.below(2)],
            seed,
            ..SpnConfig::default()
        };
        let mut spn = Spn::fit(&cols, &bins, cfg);
        let mut scratch = ModelScratch::default();
        for round in 0..2 {
            let mut queries: Vec<_> = (0..6).map(|_| rng.weights(&bins)).collect();
            queries.push(vec![None; k]);
            for q in &queries {
                let reference = reference_spn(&spn, spn.root(), q);
                prop_assert_eq!(spn.query(q).to_bits(), reference.to_bits(), "{:?}", q);
            }
            let (batch, picks) = mixed_batch(&mut rng, k, &queries);
            let mut out = Vec::new();
            spn.query_batch(&batch, &mut scratch, &mut out);
            for (&q, v) in picks.iter().zip(&out) {
                let reference = reference_spn(&spn, spn.root(), &queries[q]);
                prop_assert_eq!(v.to_bits(), reference.to_bits());
            }
            if round == 0 {
                // New rows, some with joint keys the tables have not seen.
                let rows = 1 + rng.below(60);
                spn.update(&rng.columns(&bins, rows));
            }
        }
    }

    /// The tiled batch forward pass returns the per-row pass's bits on
    /// inputs with exact zeros and `-0.0`, for layer widths on both
    /// sides of every tile width, trained biases, and 1-row batches.
    #[test]
    fn tiled_forward_batch_matches_per_row(seed in any::<u64>()) {
        let mut rng = Lcg(seed);
        let widths = [1, 3, 4, 5, 15, 16, 17, 20, 21, 33];
        let mut dims = vec![1 + rng.below(40)];
        for _ in 0..1 + rng.below(2) {
            dims.push(widths[rng.below(widths.len())]);
        }
        dims.push(1 + rng.below(3));
        let mut net = Mlp::new(&dims, seed);
        let n = 1 + rng.below(6);
        let xs = Matrix::from_fn(n, dims[0], |_, _| match rng.below(6) {
            0 | 1 => 0.0,
            2 => -0.0,
            v => (rng.below(200) as f32 - 100.0) / (16.0 * v as f32),
        });
        if *dims.last().unwrap() == 1 {
            // Move the biases off their zero initialisation.
            let ys: Vec<f32> = (0..n).map(|r| r as f32 - 1.5).collect();
            net.train_regression(&xs, &ys, 3, 0.05, seed);
        }
        let batched = net.forward_batch(&xs);
        prop_assert_eq!((batched.rows, batched.cols), (n, *dims.last().unwrap()));
        for r in 0..n {
            let single = net.forward(xs.row(r));
            let one_row = net.forward_batch(&Matrix {
                rows: 1,
                cols: dims[0],
                data: xs.row(r).to_vec(),
            });
            for (o, &v) in single.iter().enumerate() {
                prop_assert_eq!(v.to_bits(), batched.get(r, o).to_bits(), "row {} out {}", r, o);
                prop_assert_eq!(v.to_bits(), one_row.get(0, o).to_bits());
            }
        }
    }
}
