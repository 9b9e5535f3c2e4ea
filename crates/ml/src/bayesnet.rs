//! Tree-structured Bayesian network over discretized columns with exact
//! weighted-query inference (the BayesCard substrate).
//!
//! The network stores *counts* (not probabilities) so it supports the
//! paper's incremental update: new rows only bump counts, the structure —
//! which Chow-Liu learned from the stale data — is preserved.

use crate::chowliu::chow_liu_tree;
use crate::depmat::dependence_matrix;
use crate::weights::{ModelScratch, WeightBatch};

/// Laplace smoothing mass added to every CPT cell.
pub const SMOOTHING: f64 = 0.02;

/// A tree BN: per-node bin counts conditioned on the parent's bin.
///
/// The counts are the model; everything a query reads is derived from
/// them by [`TreeBayesNet::observe`] and never per call: the normalised
/// CPTs, and per node the message its subtree sends when nothing in it
/// is constrained. A query then computes messages only for the
/// constrained nodes and their ancestors — the same additions and
/// multiplications, in the same order, as a walk over every node.
#[derive(Debug, Clone)]
pub struct TreeBayesNet {
    /// `parent[i]` — `None` for the root.
    parent: Vec<Option<usize>>,
    /// Children lists derived from `parent`.
    children: Vec<Vec<usize>>,
    /// `cpt[i][pb][cb]` = count of rows with node `i` in bin `cb` and its
    /// parent in bin `pb`. The root uses a single pseudo parent bin.
    cpt: Vec<Vec<Vec<f64>>>,
    /// Bin count per node.
    bins: Vec<usize>,
    /// Total training rows.
    rows: f64,
    /// Topological order (parents before children).
    order: Vec<usize>,
    /// Roots in reverse topological order: the order their messages
    /// multiply into a result.
    roots_rev: Vec<usize>,
    /// Offset of node `i`'s message (one value per parent bin) in a
    /// message slab, and the slab's length.
    msg_off: Vec<usize>,
    msg_len: usize,
    /// Offset of node `i`'s table in `probs`.
    prob_off: Vec<usize>,
    /// Derived: smoothed `P(node i = cb | parent = pb)` at
    /// `prob_off[i] + cb * pbins + pb` — parent bin innermost, so the
    /// terms of one child bin are contiguous over the message they feed.
    probs: Vec<f64>,
    /// Derived: every node's message with its whole subtree
    /// unconstrained, laid out by `msg_off`.
    free: Vec<f64>,
}

impl TreeBayesNet {
    /// Learns structure (Chow-Liu over normalized MI) and parameters from
    /// binned columns (`cols[i][r]` = bin of row `r` in column `i`).
    pub fn fit(cols: &[Vec<u16>], bins: &[usize]) -> TreeBayesNet {
        assert_eq!(cols.len(), bins.len());
        let dep = dependence_matrix(cols);
        let parent = chow_liu_tree(&dep);
        let mut net = TreeBayesNet::with_structure(parent, bins.to_vec());
        net.observe(cols);
        net
    }

    /// Creates an empty network with a fixed structure.
    pub fn with_structure(parent: Vec<Option<usize>>, bins: Vec<usize>) -> TreeBayesNet {
        let k = parent.len();
        let mut children = vec![Vec::new(); k];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                children[*p].push(i);
            }
        }
        let pbins = |i: usize| parent[i].map_or(1, |p| bins[p]);
        let cpt = (0..k).map(|i| vec![vec![0.0; bins[i]]; pbins(i)]).collect();
        let mut order = Vec::with_capacity(k);
        let mut stack: Vec<usize> = (0..k).filter(|&i| parent[i].is_none()).collect();
        while let Some(i) = stack.pop() {
            order.push(i);
            stack.extend(children[i].iter().copied());
        }
        assert_eq!(order.len(), k, "the structure is a forest");
        let roots_rev = order
            .iter()
            .rev()
            .copied()
            .filter(|&i| parent[i].is_none())
            .collect();
        let (mut msg_off, mut prob_off) = (Vec::with_capacity(k), Vec::with_capacity(k));
        let (mut msg_len, mut prob_len) = (0, 0);
        for i in 0..k {
            msg_off.push(msg_len);
            prob_off.push(prob_len);
            msg_len += pbins(i);
            prob_len += pbins(i) * bins[i];
        }
        let mut net = TreeBayesNet {
            parent,
            children,
            cpt,
            bins,
            rows: 0.0,
            order,
            roots_rev,
            msg_off,
            msg_len,
            prob_off,
            probs: vec![0.0; prob_len],
            free: vec![0.0; msg_len],
        };
        net.refresh();
        net
    }

    /// Adds observations (incremental update: counts only, structure
    /// fixed), then rebuilds the derived tables.
    pub fn observe(&mut self, cols: &[Vec<u16>]) {
        let n = cols.first().map_or(0, Vec::len);
        for r in 0..n {
            for i in 0..self.parent.len() {
                let cb = cols[i][r] as usize;
                let pb = self.parent[i].map_or(0, |p| cols[p][r] as usize);
                self.cpt[i][pb][cb] += 1.0;
            }
        }
        self.rows += n as f64;
        self.refresh();
    }

    /// Number of training rows seen.
    pub fn rows(&self) -> f64 {
        self.rows
    }

    fn pbins(&self, i: usize) -> usize {
        self.parent[i].map_or(1, |p| self.bins[p])
    }

    /// Rebuilds `probs` and `free` from the counts.
    fn refresh(&mut self) {
        for i in 0..self.parent.len() {
            let (pbins, bins) = (self.pbins(i), self.bins[i]);
            for (pb, row) in self.cpt[i].iter().enumerate() {
                let total: f64 = row.iter().sum();
                for (cb, count) in row.iter().enumerate() {
                    self.probs[self.prob_off[i] + cb * pbins + pb] =
                        (count + SMOOTHING) / (total + SMOOTHING * bins as f64);
                }
            }
        }
        // Children before parents, each reading its children's fresh
        // messages from the table being built.
        let mut free = std::mem::take(&mut self.free);
        let fresh = vec![1; self.parent.len()];
        let (mut acc, mut term) = (Vec::new(), Vec::new());
        for &i in self.order.iter().rev() {
            self.node_message(i, None, &fresh, &free, &mut acc, &mut term);
            free[self.msg_off[i]..][..acc.len()].copy_from_slice(&acc);
        }
        self.free = free;
    }

    /// `acc[pb] = E[Π w over i's subtree | parent bin pb]`: for each
    /// child bin `cb` ascending with a non-zero weight, the term
    /// `P(cb | pb) · w[cb]` times each child's message at `cb` in child
    /// order, added to `acc[pb]`. A child's message is read from `msgs`
    /// when `dirty` marks it, else it is the child's free message.
    fn node_message(
        &self,
        i: usize,
        weights: Option<&[f64]>,
        dirty: &[u32],
        msgs: &[f64],
        acc: &mut Vec<f64>,
        term: &mut Vec<f64>,
    ) {
        let pbins = self.pbins(i);
        let probs = &self.probs[self.prob_off[i]..][..pbins * self.bins[i]];
        acc.clear();
        acc.resize(pbins, 0.0);
        term.clear();
        term.resize(pbins, 0.0);
        for (cb, p) in probs.chunks_exact(pbins).enumerate() {
            let w = weights.map_or(1.0, |w| w[cb]);
            if w == 0.0 {
                continue;
            }
            for (t, p) in term.iter_mut().zip(p) {
                *t = p * w;
            }
            for &c in &self.children[i] {
                let from = if dirty[c] != 0 { msgs } else { &self.free };
                let m = from[self.msg_off[c] + cb];
                for t in term.iter_mut() {
                    *t *= m;
                }
            }
            for (a, t) in acc.iter_mut().zip(term.iter()) {
                *a += t;
            }
        }
    }

    /// Exact `E[Π_i w_i(X_i)]` under the model for every item of
    /// `batch`, appended to `out` in order. Weights of column `i` give a
    /// per-bin weight for node `i`; an unconstrained column is the
    /// constant 1. Indicator weights give probabilities; value weights
    /// give expectations (e.g. join fanouts). Items share nothing but the
    /// scratch buffers: an item's value does not depend on the batch it
    /// is in.
    pub fn query_batch(&self, batch: &WeightBatch, scratch: &mut ModelScratch, out: &mut Vec<f64>) {
        let k = self.parent.len();
        assert_eq!(batch.cols(), k);
        let ModelScratch {
            vals: msgs,
            slots: dirty,
            acc,
            term,
            ..
        } = scratch;
        msgs.clear();
        msgs.resize(self.msg_len, 0.0);
        for item in 0..batch.len() {
            // A node is dirty when its subtree holds a constrained node:
            // every other message is the free one.
            dirty.clear();
            dirty.resize(k, 0);
            for i in 0..k {
                if batch.get(item, i).is_some() {
                    let mut at = Some(i);
                    while let Some(a) = at.filter(|&a| dirty[a] == 0) {
                        dirty[a] = 1;
                        at = self.parent[a];
                    }
                }
            }
            for &i in self.order.iter().rev() {
                if dirty[i] != 0 {
                    self.node_message(i, batch.get(item, i), dirty, msgs, acc, term);
                    msgs[self.msg_off[i]..][..acc.len()].copy_from_slice(acc);
                }
            }
            let mut result = 1.0;
            for &r in &self.roots_rev {
                let from = if dirty[r] != 0 { &*msgs } else { &self.free };
                result *= from[self.msg_off[r]];
            }
            out.push(result);
        }
    }

    /// [`TreeBayesNet::query_batch`] of one weight set (`None` = the
    /// constant 1).
    pub fn query(&self, weights: &[Option<Vec<f64>>]) -> f64 {
        let mut batch = WeightBatch::default();
        batch.reset(self.parent.len());
        batch.push_options(weights);
        let mut out = Vec::with_capacity(1);
        self.query_batch(&batch, &mut ModelScratch::default(), &mut out);
        out[0]
    }

    /// Probability that each constrained node falls in its allowed bins
    /// (indicator-weight convenience over [`TreeBayesNet::query`]).
    pub fn probability(&self, allowed: &[Option<Vec<f64>>]) -> f64 {
        self.query(allowed)
    }

    /// Approximate model size in bytes: the counts.
    pub fn size_bytes(&self) -> usize {
        self.cpt
            .iter()
            .map(|t| t.iter().map(|r| r.len() * 8).sum::<usize>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two perfectly correlated binary columns plus one independent.
    fn cols() -> Vec<Vec<u16>> {
        let a: Vec<u16> = (0..400).map(|i| (i % 2) as u16).collect();
        let b = a.clone();
        let c: Vec<u16> = (0..400).map(|i| ((i / 2) % 2) as u16).collect();
        vec![a, b, c]
    }

    #[test]
    fn marginal_probability() {
        let net = TreeBayesNet::fit(&cols(), &[2, 2, 2]);
        // P(a = 0) ≈ 0.5.
        let w = vec![Some(vec![1.0, 0.0]), None, None];
        let p = net.probability(&w);
        assert!((p - 0.5).abs() < 0.02, "p = {p}");
    }

    #[test]
    fn captures_correlation() {
        let net = TreeBayesNet::fit(&cols(), &[2, 2, 2]);
        // P(a=0 ∧ b=1) is ~0 because b == a, while independence would say 0.25.
        let w = vec![Some(vec![1.0, 0.0]), Some(vec![0.0, 1.0]), None];
        let p = net.probability(&w);
        assert!(p < 0.05, "p = {p}");
        // P(a=0 ∧ b=0) ≈ 0.5.
        let w = vec![Some(vec![1.0, 0.0]), Some(vec![1.0, 0.0]), None];
        assert!((net.probability(&w) - 0.5).abs() < 0.05);
    }

    #[test]
    fn independent_column_factorizes() {
        let net = TreeBayesNet::fit(&cols(), &[2, 2, 2]);
        let w = vec![Some(vec![1.0, 0.0]), None, Some(vec![1.0, 0.0])];
        let p = net.probability(&w);
        assert!((p - 0.25).abs() < 0.03, "p = {p}");
    }

    #[test]
    fn expectation_weights() {
        // E[f(a)] with f(0)=0, f(1)=10 and P(a=1)=0.5 → 5.
        let net = TreeBayesNet::fit(&cols(), &[2, 2, 2]);
        let w = vec![Some(vec![0.0, 10.0]), None, None];
        let e = net.query(&w);
        assert!((e - 5.0).abs() < 0.2, "e = {e}");
    }

    #[test]
    fn unconstrained_query_is_one() {
        let net = TreeBayesNet::fit(&cols(), &[2, 2, 2]);
        let w = vec![None, None, None];
        assert!((net.query(&w) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn incremental_observe_shifts_marginal() {
        let mut net = TreeBayesNet::fit(&cols(), &[2, 2, 2]);
        // Insert 400 rows that are all a=1.
        let extra = vec![vec![1u16; 400], vec![1u16; 400], vec![0u16; 400]];
        net.observe(&extra);
        let w = vec![Some(vec![0.0, 1.0]), None, None];
        let p = net.probability(&w);
        assert!((p - 0.75).abs() < 0.02, "p = {p}");
        assert_eq!(net.rows(), 800.0);
    }

    #[test]
    fn size_accounting() {
        let net = TreeBayesNet::fit(&cols(), &[2, 2, 2]);
        assert!(net.size_bytes() > 0);
        assert!(net.size_bytes() < 1024);
    }
}
