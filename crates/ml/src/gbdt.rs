//! Gradient-boosted regression trees (the LW-XGB substrate).
//!
//! Squared-error boosting: each round fits a depth-limited regression
//! tree to the residuals with exact greedy variance-reduction splits,
//! then shrinks its predictions by the learning rate.

use crate::matrix::Matrix;

/// One node of a regression tree, sixteen bytes in the ensemble's one
/// node array. A split sends `x[feature] <= value` to `kids[0]` and
/// everything else (NaN included) to `kids[1]`; a leaf predicts `value`
/// and has itself for both children, so a walk of the ensemble's
/// maximum depth needs no leaf test: it parks on the leaf it reaches.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Split feature; 0 on a leaf (any valid index: both ways stay).
    feature: u32,
    /// Split threshold, or the leaf's prediction.
    value: f32,
    /// Node ids of the `<=` and the `>` child.
    kids: [u32; 2],
}

/// Bytes one node counts for in [`Gbdt::size_bytes`]: a feature index,
/// a threshold and two child links at pointer width, as the model has
/// reported since the seed (Fig. 3's size column is about parameters,
/// not about this array's packing).
const NODE_MODEL_BYTES: usize = 32;

/// Maximum tree depth.
const DEPTH: usize = 5;
/// Learning rate.
const SHRINKAGE: f32 = 0.2;
/// Minimum rows to split a node.
const MIN_ROWS: usize = 4;

/// Builds one depth-limited regression tree into `nodes`, returning
/// its root.
fn build_tree(xs: &Matrix, ys: &[f32], rows: &[usize], depth: usize, nodes: &mut Vec<Node>) -> u32 {
    let leaf = |value: f32, nodes: &mut Vec<Node>| {
        let id = nodes.len() as u32;
        nodes.push(Node {
            feature: 0,
            value,
            kids: [id, id],
        });
        id
    };
    let mean = rows.iter().map(|&r| ys[r]).sum::<f32>() / rows.len().max(1) as f32;
    if depth == 0 || rows.len() < MIN_ROWS {
        return leaf(mean, nodes);
    }
    // Greedy best split by variance reduction.
    let mut best: Option<(f32, usize, f32)> = None; // (score, feature, threshold)
    for f in 0..xs.cols {
        let mut vals: Vec<(f32, f32)> = rows.iter().map(|&r| (xs.get(r, f), ys[r])).collect();
        vals.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("features are not NaN"));
        let total_sum: f32 = vals.iter().map(|v| v.1).sum();
        let total_sq: f32 = vals.iter().map(|v| v.1 * v.1).sum();
        let n = vals.len() as f32;
        let mut lsum = 0.0f32;
        let mut lsq = 0.0f32;
        for i in 0..vals.len() - 1 {
            lsum += vals[i].1;
            lsq += vals[i].1 * vals[i].1;
            if vals[i].0 == vals[i + 1].0 {
                continue; // can't split between equal values
            }
            let ln = (i + 1) as f32;
            let rn = n - ln;
            let lvar = lsq - lsum * lsum / ln;
            let rsum = total_sum - lsum;
            let rvar = (total_sq - lsq) - rsum * rsum / rn;
            let score = lvar + rvar; // lower is better
            if best.is_none_or(|(s, _, _)| score < s) {
                best = Some((score, f, (vals[i].0 + vals[i + 1].0) / 2.0));
            }
        }
    }
    let Some((_, feature, threshold)) = best else {
        return leaf(mean, nodes);
    };
    let (lrows, rrows): (Vec<usize>, Vec<usize>) =
        rows.iter().partition(|&&r| xs.get(r, feature) <= threshold);
    if lrows.is_empty() || rrows.is_empty() {
        return leaf(mean, nodes);
    }
    let left = build_tree(xs, ys, &lrows, depth - 1, nodes);
    let right = build_tree(xs, ys, &rrows, depth - 1, nodes);
    nodes.push(Node {
        feature: feature as u32,
        value: threshold,
        kids: [left, right],
    });
    nodes.len() as u32 - 1
}

/// Gradient-boosted regression-tree ensemble.
#[derive(Debug, Clone)]
pub struct Gbdt {
    /// Every tree's nodes, tree after tree.
    nodes: Vec<Node>,
    /// Root node of each tree, in boosting order.
    roots: Vec<u32>,
    base: f32,
}

/// GBDT hyper-parameters.
#[derive(Debug, Clone)]
pub struct GbdtConfig {
    /// Boosting rounds.
    pub rounds: usize,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig { rounds: 60 }
    }
}

impl Gbdt {
    /// Fits the ensemble to `(xs, ys)`.
    pub fn fit(xs: &Matrix, ys: &[f32], cfg: &GbdtConfig) -> Gbdt {
        assert_eq!(xs.rows, ys.len());
        assert!(xs.rows > 0);
        assert!(xs.cols > 0, "a leaf's walk reads feature 0");
        let base = ys.iter().sum::<f32>() / ys.len() as f32;
        let mut residual: Vec<f32> = ys.iter().map(|&y| y - base).collect();
        let rows: Vec<usize> = (0..xs.rows).collect();
        let mut gbdt = Gbdt {
            nodes: Vec::new(),
            roots: Vec::with_capacity(cfg.rounds),
            base,
        };
        for _ in 0..cfg.rounds {
            let root = build_tree(xs, &residual, &rows, DEPTH, &mut gbdt.nodes);
            for (r, res) in residual.iter_mut().enumerate() {
                *res -= SHRINKAGE * gbdt.leaf_value(root, xs.row(r));
            }
            gbdt.roots.push(root);
        }
        gbdt
    }

    /// The prediction of the tree rooted at `root` for `x`: [`DEPTH`]
    /// branch-free steps (a leaf steps onto itself).
    #[inline]
    fn leaf_value(&self, root: u32, x: &[f32]) -> f32 {
        let mut at = root as usize;
        for _ in 0..DEPTH {
            let node = &self.nodes[at];
            // NaN fails the test and goes right, like everything `>`.
            let left = x[node.feature as usize] <= node.value;
            at = node.kids[usize::from(!left)] as usize;
        }
        self.nodes[at].value
    }

    /// Predicts one sample: the one-row case of [`Gbdt::predict_into`].
    pub fn predict(&self, x: &[f32]) -> f32 {
        let mut out = [0.0f32];
        self.predict_into(x, x.len(), &mut out);
        out[0]
    }

    /// Predicts every `cols`-wide row of the row-major `xs` into `out`.
    /// Trees walk outermost so each tree's nodes stay hot across items;
    /// each item still accumulates its per-tree outputs in ensemble
    /// order, whatever else the batch holds.
    pub fn predict_into(&self, xs: &[f32], cols: usize, out: &mut [f32]) {
        assert_eq!(xs.len(), out.len() * cols);
        out.fill(0.0);
        for &root in &self.roots {
            for (sum, x) in out.iter_mut().zip(xs.chunks_exact(cols)) {
                *sum += self.leaf_value(root, x);
            }
        }
        for sum in out.iter_mut() {
            *sum = self.base + SHRINKAGE * *sum;
        }
    }

    /// Approximate model size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.nodes.len() * NODE_MODEL_BYTES + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_step_function() {
        let xs = Matrix::from_fn(100, 1, |r, _| r as f32 / 100.0);
        let ys: Vec<f32> = (0..100).map(|r| if r < 50 { 1.0 } else { 5.0 }).collect();
        let g = Gbdt::fit(&xs, &ys, &GbdtConfig::default());
        assert!((g.predict(&[0.2]) - 1.0).abs() < 0.1);
        assert!((g.predict(&[0.8]) - 5.0).abs() < 0.1);
    }

    #[test]
    fn fits_additive_function() {
        // y = x0 + 2*x1 over a grid.
        let xs = Matrix::from_fn(64, 2, |r, c| {
            if c == 0 {
                (r % 8) as f32
            } else {
                (r / 8) as f32
            }
        });
        let ys: Vec<f32> = (0..64).map(|r| xs.get(r, 0) + 2.0 * xs.get(r, 1)).collect();
        let g = Gbdt::fit(&xs, &ys, &GbdtConfig::default());
        let mut err = 0.0;
        for r in 0..64 {
            err += (g.predict(xs.row(r)) - ys[r]).abs();
        }
        assert!(err / 64.0 < 0.5, "mean abs err {}", err / 64.0);
    }

    #[test]
    fn constant_target_gives_constant_model() {
        let xs = Matrix::from_fn(10, 2, |r, c| (r + c) as f32);
        let ys = vec![3.5f32; 10];
        let g = Gbdt::fit(&xs, &ys, &GbdtConfig::default());
        assert!((g.predict(&[100.0, -5.0]) - 3.5).abs() < 1e-3);
    }

    #[test]
    fn predict_batch_bit_identical_to_per_row() {
        let xs = Matrix::from_fn(40, 2, |r, c| ((r * 7 + c * 3) % 11) as f32);
        let ys: Vec<f32> = (0..40).map(|r| (r % 5) as f32 - 2.0).collect();
        let g = Gbdt::fit(&xs, &ys, &GbdtConfig::default());
        let mut batched = vec![f32::NAN; xs.rows];
        g.predict_into(&xs.data, xs.cols, &mut batched);
        for r in 0..xs.rows {
            assert_eq!(
                g.predict(xs.row(r)).to_bits(),
                batched[r].to_bits(),
                "row {r}"
            );
        }
    }

    #[test]
    fn size_accounting() {
        let xs = Matrix::from_fn(20, 1, |r, _| r as f32);
        let ys: Vec<f32> = (0..20).map(|r| r as f32).collect();
        let g = Gbdt::fit(&xs, &ys, &GbdtConfig { rounds: 3 });
        assert!(g.size_bytes() > 0);
    }
}
