//! Sum-product networks over discretized columns (the DeepDB substrate),
//! with optional joint multi-leaves (the FLAT/FSPN substrate).
//!
//! Structure learning follows LearnSPN: recursively try an independence
//! split of the columns (dependence below `DEP_THRESHOLD` ⇒ product node);
//! otherwise cluster the rows (k-means ⇒ sum node). In `multileaf` mode
//! (FLAT), groups of highly correlated columns (pairwise dependence above
//! `JOINT_THRESHOLD`) are modeled *exactly* by a joint count table instead
//! of being chased down long sum-node chains — the FSPN factorize/multi-
//! leaf idea, which is why FLAT is more accurate and compact than DeepDB
//! on correlated data (paper O8).
//!
//! All parameters are stored as counts so the paper's incremental update
//! (structure preserved, parameters updated) is supported.

use crate::depmat::dependence_matrix;
use crate::kmeans::kmeans;
use crate::matrix::Matrix;
use crate::weights::{ModelScratch, WeightBatch};

/// Below this pairwise dependence, columns are split independently
/// (the paper's RDC threshold).
const DEP_THRESHOLD: f64 = 0.3;
/// Above this pairwise dependence, columns are grouped into a joint
/// multi-leaf when `multileaf` is on (the paper's threshold).
const JOINT_THRESHOLD: f64 = 0.7;
/// Maximum columns a multi-leaf may cover.
const MAX_MULTILEAF_COLS: usize = 4;
/// Maximum recursion depth before forcing leaves.
const MAX_DEPTH: usize = 24;
/// k-means iterations for row clustering.
const CLUSTER_ITERS: usize = 8;

/// SPN learning configuration.
#[derive(Debug, Clone)]
pub struct SpnConfig {
    /// Stop recursing below this many rows (paper: 1% of input).
    pub min_rows: usize,
    /// Enable FSPN-style multi-leaves (FLAT) instead of pure SPN (DeepDB).
    pub multileaf: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SpnConfig {
    fn default() -> Self {
        SpnConfig {
            min_rows: 64,
            multileaf: false,
            seed: 0,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Mixture over row clusters; child weights are row counts.
    Sum,
    /// Independent column groups.
    Product,
    /// Univariate histogram (counts per bin).
    Leaf,
    /// Exact joint count table over a few highly correlated columns.
    MultiLeaf,
}

/// One node of the flat node array. Children are built before their
/// parent, so ascending node id is a bottom-up topological order and
/// the root is the last node.
#[derive(Debug, Clone, Copy)]
struct Node {
    kind: Kind,
    /// Sum/Product: children are `kids[lo..hi]`. Leaf: column `lo`,
    /// counts at `leaf_counts[hi..hi + bins[lo]]`. MultiLeaf:
    /// `multis[lo]`.
    lo: u32,
    hi: u32,
}

/// A multi-leaf's joint table, as parallel arrays sorted by key: the
/// order every sum over it runs in, whatever order the rows arrived in.
#[derive(Debug, Clone)]
struct MultiLeaf {
    cols: Vec<usize>,
    /// `cols.len()` bins per entry, entries ascending.
    keys: Vec<u16>,
    /// Row count per entry.
    counts: Vec<f64>,
    /// Derived: `counts[e] / total`.
    probs: Vec<f64>,
}

impl MultiLeaf {
    /// Entry holding `key`, or the entry it would be inserted before.
    fn find(&self, key: &[u16]) -> Result<usize, usize> {
        let width = self.cols.len();
        let (mut lo, mut hi) = (0, self.counts.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            match self.keys[mid * width..(mid + 1) * width].cmp(key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }
}

/// A read-only view of one node: the learned state, none of the derived
/// tables.
#[derive(Debug, Clone, Copy)]
pub enum SpnNode<'a> {
    /// Mixture: child node ids and their row counts.
    Sum {
        /// Child node ids.
        children: &'a [u32],
        /// Row count routed to each child.
        counts: &'a [f64],
    },
    /// Product over independent column groups.
    Product {
        /// Child node ids.
        children: &'a [u32],
    },
    /// Univariate histogram.
    Leaf {
        /// Model column.
        col: usize,
        /// Row count per bin.
        counts: &'a [f64],
    },
    /// Joint count table.
    MultiLeaf {
        /// Model columns, in key order.
        cols: &'a [usize],
        /// `cols.len()` bins per entry, entries ascending.
        keys: &'a [u16],
        /// Row count per entry.
        counts: &'a [f64],
    },
}

/// A learned sum-product network.
///
/// Counts are the model. What evaluation reads is derived from them once
/// per [`Spn::fit`]/[`Spn::update`] and never per query: leaf and
/// multi-leaf probabilities, normalised sum weights, each node's column
/// scope, and each node's value when nothing in its scope is
/// constrained.
#[derive(Debug, Clone)]
pub struct Spn {
    nodes: Vec<Node>,
    /// Child ids of sum and product nodes.
    kids: Vec<u32>,
    /// Per `kids` entry of a sum node: rows routed to that child.
    kid_counts: Vec<f64>,
    /// Leaf histograms.
    leaf_counts: Vec<f64>,
    multis: Vec<MultiLeaf>,
    root: usize,
    bins: Vec<usize>,
    cfg: SpnConfig,
    rows: f64,
    /// Bit `c` set when model column `c` is below the node.
    scope: Vec<u64>,
    /// Derived, per `kids` entry of a sum node: `count / total`.
    kid_fracs: Vec<f64>,
    /// Derived, laid out as `leaf_counts`: `count / total`.
    leaf_probs: Vec<f64>,
    /// Derived, per node: sum of its counts.
    total: Vec<f64>,
    /// Derived, per node: its value with its whole scope unconstrained.
    free: Vec<f64>,
}

/// [`ModelScratch::slots`] entry of a node no item of the batch
/// constrains: its value is its free value for every item.
const INACTIVE: u32 = u32::MAX;

impl Spn {
    /// Learns an SPN from binned columns (`cols[i][r]` = bin of row `r`).
    pub fn fit(cols: &[Vec<u16>], bins: &[usize], cfg: SpnConfig) -> Spn {
        assert_eq!(cols.len(), bins.len());
        assert!(!cols.is_empty());
        assert!(cols.len() <= 64, "a node's scope is one 64-bit mask");
        let n = cols[0].len();
        let mut spn = Spn {
            nodes: Vec::new(),
            kids: Vec::new(),
            kid_counts: Vec::new(),
            leaf_counts: Vec::new(),
            multis: Vec::new(),
            root: 0,
            bins: bins.to_vec(),
            cfg,
            rows: n as f64,
            scope: Vec::new(),
            kid_fracs: Vec::new(),
            leaf_probs: Vec::new(),
            total: Vec::new(),
            free: Vec::new(),
        };
        let rows: Vec<u32> = (0..n as u32).collect();
        let scope: Vec<usize> = (0..cols.len()).collect();
        spn.root = spn.build(cols, &rows, &scope, 0);
        spn.refresh();
        spn
    }

    /// Number of training rows.
    pub fn rows(&self) -> f64 {
        self.rows
    }

    /// Number of nodes (training/size diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Id of the root node (the last one: children precede parents).
    pub fn root(&self) -> usize {
        self.root
    }

    /// The learned state of node `id`.
    pub fn node(&self, id: usize) -> SpnNode<'_> {
        let node = self.nodes[id];
        let (lo, hi) = (node.lo as usize, node.hi as usize);
        match node.kind {
            Kind::Sum => SpnNode::Sum {
                children: &self.kids[lo..hi],
                counts: &self.kid_counts[lo..hi],
            },
            Kind::Product => SpnNode::Product {
                children: &self.kids[lo..hi],
            },
            Kind::Leaf => SpnNode::Leaf {
                col: lo,
                counts: &self.leaf_counts[hi..hi + self.bins[lo]],
            },
            Kind::MultiLeaf => {
                let m = &self.multis[lo];
                SpnNode::MultiLeaf {
                    cols: &m.cols,
                    keys: &m.keys,
                    counts: &m.counts,
                }
            }
        }
    }

    fn build(&mut self, cols: &[Vec<u16>], rows: &[u32], scope: &[usize], depth: usize) -> usize {
        if scope.len() == 1 {
            return self.push_leaf(cols, rows, scope[0]);
        }
        if rows.len() < self.cfg.min_rows || depth >= MAX_DEPTH {
            return self.fallback(cols, rows, scope);
        }
        // Dependence over the row subset.
        let sub: Vec<Vec<u16>> = scope
            .iter()
            .map(|&c| rows.iter().map(|&r| cols[c][r as usize]).collect())
            .collect();
        let dep = dependence_matrix(&sub);
        let comps = components(&dep, DEP_THRESHOLD);
        if comps.len() > 1 {
            let children: Vec<usize> = comps
                .iter()
                .map(|comp| {
                    let sub_scope: Vec<usize> = comp.iter().map(|&i| scope[i]).collect();
                    self.build(cols, rows, &sub_scope, depth + 1)
                })
                .collect();
            return self.push_inner(Kind::Product, children.into_iter().map(|c| (0.0, c)));
        }
        // FLAT: tightly coupled small groups become exact joint leaves.
        if self.cfg.multileaf
            && scope.len() <= MAX_MULTILEAF_COLS
            && min_offdiag(&dep) >= JOINT_THRESHOLD
        {
            return self.push_multileaf(cols, rows, scope);
        }
        // Row clustering → sum node.
        let feats = Matrix::from_fn(rows.len(), scope.len(), |r, c| {
            let col = scope[c];
            cols[col][rows[r] as usize] as f32 / self.bins[col].max(1) as f32
        });
        let assign = kmeans(&feats, 2, CLUSTER_ITERS, self.cfg.seed ^ depth as u64);
        let (a_rows, b_rows): (Vec<u32>, Vec<u32>) = rows
            .iter()
            .enumerate()
            .map(|(i, &r)| (assign[i], r))
            .partition_map();
        if a_rows.is_empty() || b_rows.is_empty() {
            return self.fallback(cols, rows, scope);
        }
        let ca = self.build(cols, &a_rows, scope, depth + 1);
        let cb = self.build(cols, &b_rows, scope, depth + 1);
        self.push_inner(
            Kind::Sum,
            [(a_rows.len() as f64, ca), (b_rows.len() as f64, cb)].into_iter(),
        )
    }

    /// Independence fallback: product of univariate leaves, or a joint
    /// multi-leaf when allowed and small.
    fn fallback(&mut self, cols: &[Vec<u16>], rows: &[u32], scope: &[usize]) -> usize {
        if self.cfg.multileaf && scope.len() <= MAX_MULTILEAF_COLS {
            return self.push_multileaf(cols, rows, scope);
        }
        let children: Vec<usize> = scope
            .iter()
            .map(|&c| self.push_leaf(cols, rows, c))
            .collect();
        self.push_inner(Kind::Product, children.into_iter().map(|c| (0.0, c)))
    }

    fn push_leaf(&mut self, cols: &[Vec<u16>], rows: &[u32], col: usize) -> usize {
        let at = self.leaf_counts.len();
        self.leaf_counts.resize(at + self.bins[col], 0.0);
        for &r in rows {
            self.leaf_counts[at + cols[col][r as usize] as usize] += 1.0;
        }
        self.push(Kind::Leaf, col, at, 1 << col)
    }

    fn push_multileaf(&mut self, cols: &[Vec<u16>], rows: &[u32], scope: &[usize]) -> usize {
        let width = scope.len();
        let mut row_keys: Vec<u16> = Vec::with_capacity(rows.len() * width);
        for &r in rows {
            row_keys.extend(scope.iter().map(|&c| cols[c][r as usize]));
        }
        let key = |i: u32| &row_keys[i as usize * width..(i as usize + 1) * width];
        let mut by_key: Vec<u32> = (0..rows.len() as u32).collect();
        by_key.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
        let mut leaf = MultiLeaf {
            cols: scope.to_vec(),
            keys: Vec::new(),
            counts: Vec::new(),
            probs: Vec::new(),
        };
        for &i in &by_key {
            if leaf.counts.is_empty() || leaf.keys[leaf.keys.len() - width..] != *key(i) {
                leaf.keys.extend_from_slice(key(i));
                leaf.counts.push(0.0);
            }
            *leaf.counts.last_mut().expect("an entry was just pushed") += 1.0;
        }
        self.multis.push(leaf);
        let mask = scope.iter().fold(0, |m, &c| m | 1 << c);
        self.push(Kind::MultiLeaf, self.multis.len() - 1, 0, mask)
    }

    /// Pushes a sum or product node over `(row count, child)` pairs.
    fn push_inner(&mut self, kind: Kind, children: impl Iterator<Item = (f64, usize)>) -> usize {
        let lo = self.kids.len();
        let mut mask = 0;
        for (count, child) in children {
            self.kids.push(child as u32);
            self.kid_counts.push(count);
            mask |= self.scope[child];
        }
        self.push(kind, lo, self.kids.len(), mask)
    }

    fn push(&mut self, kind: Kind, lo: usize, hi: usize, scope: u64) -> usize {
        self.nodes.push(Node {
            kind,
            lo: lo as u32,
            hi: hi as u32,
        });
        self.scope.push(scope);
        self.nodes.len() - 1
    }

    /// Rebuilds every derived table from the counts.
    fn refresh(&mut self) {
        self.kid_fracs.clear();
        self.kid_fracs.resize(self.kids.len(), 0.0);
        self.leaf_probs.clear();
        self.leaf_probs.resize(self.leaf_counts.len(), 0.0);
        self.total.clear();
        self.free.clear();
        for node in &self.nodes {
            let (lo, hi) = (node.lo as usize, node.hi as usize);
            let (total, free) = match node.kind {
                Kind::Sum => {
                    let total: f64 = self.kid_counts[lo..hi].iter().sum();
                    let mut free = 0.0;
                    if total > 0.0 {
                        for k in lo..hi {
                            self.kid_fracs[k] = self.kid_counts[k] / total;
                            free += self.kid_fracs[k] * self.free[self.kids[k] as usize];
                        }
                    }
                    (total, free)
                }
                Kind::Product => {
                    let mut free = 1.0;
                    for &c in &self.kids[lo..hi] {
                        free *= self.free[c as usize];
                    }
                    (0.0, free)
                }
                Kind::Leaf => {
                    let span = hi..hi + self.bins[lo];
                    let total: f64 = self.leaf_counts[span.clone()].iter().sum();
                    if total > 0.0 {
                        for k in span {
                            self.leaf_probs[k] = self.leaf_counts[k] / total;
                        }
                    }
                    (total, 1.0)
                }
                Kind::MultiLeaf => {
                    let m = &mut self.multis[lo];
                    let total: f64 = m.counts.iter().sum();
                    m.probs.clear();
                    m.probs.extend(m.counts.iter().map(|c| c / total));
                    (total, 1.0)
                }
            };
            self.total.push(total);
            self.free.push(free);
        }
    }

    /// `E[Π_i w_i(X_i)]` under the model for every item of `batch`,
    /// appended to `out` in order; weights of column `i` are a per-bin
    /// weight vector (unconstrained = constant 1).
    ///
    /// One bottom-up pass over the node array, without recursion. A node
    /// whose scope no item constrains is skipped — every item reads its
    /// free value — so a batch pays for the columns it filters, not for
    /// the tree. The other nodes hold one value per item; each item's
    /// value is computed from its own weights and its children's values
    /// in child order, so it does not depend on what else is in the
    /// batch.
    pub fn query_batch(&self, batch: &WeightBatch, scratch: &mut ModelScratch, out: &mut Vec<f64>) {
        assert_eq!(batch.cols(), self.bins.len());
        let n = batch.len();
        if n == 0 {
            return;
        }
        let ModelScratch {
            vals, slots, masks, ..
        } = scratch;
        masks.clear();
        masks.extend((0..n).map(|item| {
            (0..self.bins.len())
                .filter(|&c| batch.get(item, c).is_some())
                .fold(0u64, |m, c| m | 1 << c)
        }));
        let any = masks.iter().fold(0, |a, m| a | m);
        slots.clear();
        slots.resize(self.nodes.len(), INACTIVE);
        vals.clear();
        for (id, node) in self.nodes.iter().enumerate() {
            let scope = self.scope[id];
            if scope & any == 0 {
                continue;
            }
            let at = vals.len();
            slots[id] = (at / n) as u32;
            vals.resize(at + n, 0.0);
            let (done, cur) = vals.split_at_mut(at);
            let (lo, hi) = (node.lo as usize, node.hi as usize);
            // A child's values: its row, or its free value for all.
            let child = |k: usize| -> Result<&[f64], f64> {
                let c = self.kids[k] as usize;
                match slots[c] {
                    INACTIVE => Err(self.free[c]),
                    row => Ok(&done[row as usize * n..][..n]),
                }
            };
            match node.kind {
                Kind::Sum => {
                    if self.total[id] > 0.0 {
                        for k in lo..hi {
                            let f = self.kid_fracs[k];
                            match child(k) {
                                Ok(s) => cur.iter_mut().zip(s).for_each(|(o, s)| *o += f * s),
                                Err(s) => cur.iter_mut().for_each(|o| *o += f * s),
                            }
                        }
                    }
                }
                Kind::Product => {
                    cur.fill(1.0);
                    for k in lo..hi {
                        match child(k) {
                            Ok(s) => cur.iter_mut().zip(s).for_each(|(o, s)| *o *= s),
                            Err(s) => cur.iter_mut().for_each(|o| *o *= s),
                        }
                    }
                }
                Kind::Leaf => {
                    let probs = &self.leaf_probs[hi..hi + self.bins[lo]];
                    for (item, o) in cur.iter_mut().enumerate() {
                        *o = match batch.get(item, lo) {
                            None => 1.0,
                            Some(_) if self.total[id] <= 0.0 => 0.0,
                            Some(w) => probs.iter().zip(w).map(|(p, wv)| p * wv).sum(),
                        };
                    }
                }
                Kind::MultiLeaf => {
                    let m = &self.multis[lo];
                    if self.total[id] > 0.0 {
                        // One pass over the joint table in key order; the
                        // inner item loop adds each entry's term to the
                        // items that constrain the leaf.
                        for (key, &base) in m.keys.chunks_exact(m.cols.len()).zip(&m.probs) {
                            for (item, o) in cur.iter_mut().enumerate() {
                                if masks[item] & scope == 0 {
                                    continue;
                                }
                                let mut w = base;
                                for (&bin, &c) in key.iter().zip(&m.cols) {
                                    if let Some(wv) = batch.get(item, c) {
                                        w *= wv[bin as usize];
                                    }
                                }
                                *o += w;
                            }
                        }
                    }
                    for (o, mask) in cur.iter_mut().zip(masks.iter()) {
                        if mask & scope == 0 {
                            *o = 1.0;
                        }
                    }
                }
            }
        }
        match slots[self.root] {
            INACTIVE => out.extend(std::iter::repeat_n(self.free[self.root], n)),
            row => out.extend_from_slice(&vals[row as usize * n..][..n]),
        }
    }

    /// Likelihood of a single fully observed row (used to route updates).
    /// Reads the counts, not the derived tables: an update bumps counts
    /// between calls.
    fn row_likelihood(&self, id: usize, row: &[u16]) -> f64 {
        match self.node(id) {
            SpnNode::Sum { children, counts } => {
                let total: f64 = counts.iter().sum();
                counts
                    .iter()
                    .zip(children)
                    .map(|(w, &c)| (w / total.max(1e-12)) * self.row_likelihood(c as usize, row))
                    .sum()
            }
            SpnNode::Product { children } => children
                .iter()
                .map(|&c| self.row_likelihood(c as usize, row))
                .product(),
            SpnNode::Leaf { col, counts } => {
                let total: f64 = counts.iter().sum();
                (counts[row[col] as usize] + 0.1) / (total + 0.1 * counts.len() as f64)
            }
            SpnNode::MultiLeaf { cols, counts, .. } => {
                let key: Vec<u16> = cols.iter().map(|&c| row[c]).collect();
                let m = &self.multis[self.nodes[id].lo as usize];
                let total: f64 = counts.iter().sum();
                (m.find(&key).map_or(0.0, |e| counts[e]) + 0.1) / (total + 1.0)
            }
        }
    }

    /// Incremental update: routes each new row down the fixed structure
    /// (choosing the most likely sum branch) and bumps counts — DeepDB's
    /// parameter-only update, with its accuracy caveat (paper O10) —
    /// then rebuilds the derived tables.
    pub fn update(&mut self, cols: &[Vec<u16>]) {
        let n = cols.first().map_or(0, Vec::len);
        for r in 0..n {
            let row: Vec<u16> = cols.iter().map(|c| c[r]).collect();
            self.update_row(self.root, &row);
            self.rows += 1.0;
        }
        self.refresh();
    }

    fn update_row(&mut self, id: usize, row: &[u16]) {
        let node = self.nodes[id];
        let (lo, hi) = (node.lo as usize, node.hi as usize);
        match node.kind {
            Kind::Leaf => self.leaf_counts[hi + row[lo] as usize] += 1.0,
            Kind::MultiLeaf => {
                let m = &mut self.multis[lo];
                let key: Vec<u16> = m.cols.iter().map(|&c| row[c]).collect();
                match m.find(&key) {
                    Ok(e) => m.counts[e] += 1.0,
                    Err(e) => {
                        let at = e * key.len();
                        m.keys.splice(at..at, key);
                        m.counts.insert(e, 1.0);
                    }
                }
            }
            Kind::Product => {
                for k in lo..hi {
                    self.update_row(self.kids[k] as usize, row);
                }
            }
            Kind::Sum => {
                // Route to the most likely branch and bump its weight.
                let best = self.kids[lo..hi]
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| (i, self.row_likelihood(c as usize, row)))
                    .max_by(|a, b| a.1.partial_cmp(&b.1).expect("likelihoods are not NaN"))
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                self.kid_counts[lo + best] += 1.0;
                self.update_row(self.kids[lo + best] as usize, row);
            }
        }
    }

    /// Approximate model size in bytes: structure and counts.
    pub fn size_bytes(&self) -> usize {
        (0..self.nodes.len())
            .map(|id| match self.node(id) {
                SpnNode::Sum { children, .. } => 16 + children.len() * 16,
                SpnNode::Product { children } => 16 + children.len() * 8,
                SpnNode::Leaf { counts, .. } => 16 + counts.len() * 8,
                SpnNode::MultiLeaf { cols, counts, .. } => 16 + counts.len() * (cols.len() * 2 + 8),
            })
            .sum()
    }
}

/// Connected components of the dependence graph thresholded at `thr`.
fn components(dep: &[Vec<f64>], thr: f64) -> Vec<Vec<usize>> {
    let k = dep.len();
    let mut comp = vec![usize::MAX; k];
    let mut n_comp = 0;
    for start in 0..k {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = n_comp;
        while let Some(i) = stack.pop() {
            for j in 0..k {
                if comp[j] == usize::MAX && dep[i][j] >= thr {
                    comp[j] = n_comp;
                    stack.push(j);
                }
            }
        }
        n_comp += 1;
    }
    let mut out = vec![Vec::new(); n_comp];
    for (i, &c) in comp.iter().enumerate() {
        out[c].push(i);
    }
    out
}

/// Minimum off-diagonal entry of a square matrix.
fn min_offdiag(m: &[Vec<f64>]) -> f64 {
    let mut best = f64::INFINITY;
    for i in 0..m.len() {
        for j in 0..m.len() {
            if i != j {
                best = best.min(m[i][j]);
            }
        }
    }
    best
}

/// Partition helper turning `(bucket, value)` pairs into two vectors.
trait PartitionMap {
    fn partition_map(self) -> (Vec<u32>, Vec<u32>);
}

impl<I: Iterator<Item = (usize, u32)>> PartitionMap for I {
    fn partition_map(self) -> (Vec<u32>, Vec<u32>) {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (bucket, v) in self {
            if bucket == 0 {
                a.push(v);
            } else {
                b.push(v);
            }
        }
        (a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::tests::batch_of;

    /// `E[Π w]` of one weight set, through a one-item batch.
    fn query(spn: &Spn, w: &[Option<Vec<f64>>]) -> f64 {
        let mut out = Vec::new();
        spn.query_batch(
            &batch_of(w.len(), &[w]),
            &mut ModelScratch::default(),
            &mut out,
        );
        out[0]
    }

    fn correlated_data(n: usize) -> (Vec<Vec<u16>>, Vec<usize>) {
        // a and b perfectly correlated; c independent.
        let a: Vec<u16> = (0..n).map(|i| (i % 3) as u16).collect();
        let b: Vec<u16> = a.iter().map(|&v| 2 - v).collect();
        let c: Vec<u16> = (0..n).map(|i| ((i / 3) % 2) as u16).collect();
        (vec![a, b, c], vec![3, 3, 2])
    }

    fn indicator(bins: usize, allowed: &[usize]) -> Option<Vec<f64>> {
        let mut w = vec![0.0; bins];
        for &a in allowed {
            w[a] = 1.0;
        }
        Some(w)
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let (cols, bins) = correlated_data(600);
        let spn = Spn::fit(&cols, &bins, SpnConfig::default());
        for a in 0..3 {
            let w = vec![indicator(3, &[a]), None, None];
            let p = query(&spn, &w);
            assert!((0.0..=1.0).contains(&p), "p = {p}");
            assert!((p - 1.0 / 3.0).abs() < 0.05);
        }
    }

    #[test]
    fn unconstrained_is_one() {
        let (cols, bins) = correlated_data(300);
        let spn = Spn::fit(&cols, &bins, SpnConfig::default());
        assert!((query(&spn, &[None, None, None]) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn multileaf_captures_correlation_better() {
        let (cols, bins) = correlated_data(900);
        let plain = Spn::fit(
            &cols,
            &bins,
            SpnConfig {
                min_rows: 2000,
                ..SpnConfig::default()
            },
        );
        let flat = Spn::fit(
            &cols,
            &bins,
            SpnConfig {
                min_rows: 2000,
                multileaf: true,
                ..SpnConfig::default()
            },
        );
        // P(a=0 ∧ b=0) is 0 in the data (b = 2-a). With forced-independent
        // leaves plain SPN says ~1/9; the multi-leaf is exact.
        let w = vec![indicator(3, &[0]), indicator(3, &[0]), None];
        let p_plain = query(&plain, &w);
        let p_flat = query(&flat, &w);
        assert!(p_flat < 0.01, "flat p = {p_flat}");
        assert!(p_plain > 0.05, "plain p = {p_plain}");
    }

    #[test]
    fn sum_nodes_recover_correlation_with_enough_rows() {
        let (cols, bins) = correlated_data(1200);
        let spn = Spn::fit(
            &cols,
            &bins,
            SpnConfig {
                min_rows: 16,
                ..SpnConfig::default()
            },
        );
        let w = vec![indicator(3, &[0]), indicator(3, &[0]), None];
        // Row clustering should reduce the independence error well below 1/9.
        assert!(query(&spn, &w) < 0.09, "p = {}", query(&spn, &w));
    }

    #[test]
    fn expectation_weights() {
        let (cols, bins) = correlated_data(600);
        let spn = Spn::fit(&cols, &bins, SpnConfig::default());
        // E[f(c)] with f(0)=0, f(1)=6 and P(c=1)=0.5 → 3.
        let w = vec![None, None, Some(vec![0.0, 6.0])];
        assert!((query(&spn, &w) - 3.0).abs() < 0.3);
    }

    #[test]
    fn update_shifts_marginals() {
        let (cols, bins) = correlated_data(300);
        let mut spn = Spn::fit(&cols, &bins, SpnConfig::default());
        // Insert rows that are all a=1.
        let extra = vec![vec![1u16; 300], vec![1u16; 300], vec![0u16; 300]];
        spn.update(&extra);
        let w = vec![indicator(3, &[1]), None, None];
        let p = query(&spn, &w);
        assert!(p > 0.5, "p = {p}");
        assert_eq!(spn.rows(), 600.0);
    }

    #[test]
    fn query_batch_bit_identical_to_per_item() {
        let (cols, bins) = correlated_data(900);
        for cfg in [
            SpnConfig::default(),
            SpnConfig {
                multileaf: true,
                min_rows: 2000,
                ..SpnConfig::default()
            },
            SpnConfig {
                min_rows: 16,
                ..SpnConfig::default()
            },
        ] {
            let spn = Spn::fit(&cols, &bins, cfg);
            let queries: Vec<Vec<Option<Vec<f64>>>> = vec![
                vec![None, None, None],
                vec![indicator(3, &[0]), None, None],
                vec![indicator(3, &[0]), indicator(3, &[0]), None],
                vec![None, indicator(3, &[1, 2]), Some(vec![0.0, 6.0])],
                vec![indicator(3, &[2]), indicator(3, &[0]), indicator(2, &[1])],
            ];
            let sets: Vec<&[Option<Vec<f64>>]> = queries.iter().map(Vec::as_slice).collect();
            let mut batched = Vec::new();
            spn.query_batch(
                &batch_of(bins.len(), &sets),
                &mut ModelScratch::default(),
                &mut batched,
            );
            for (q, &b) in queries.iter().zip(&batched) {
                let single = query(&spn, q);
                assert_eq!(single.to_bits(), b.to_bits(), "query {q:?}");
            }
        }
        let spn = Spn::fit(&cols, &bins, SpnConfig::default());
        let mut empty = WeightBatch::default();
        empty.reset(bins.len());
        let mut out = Vec::new();
        spn.query_batch(&empty, &mut ModelScratch::default(), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn multileaf_table_is_sorted_and_updates_in_place() {
        let (cols, bins) = correlated_data(90);
        let mut spn = Spn::fit(
            &cols,
            &bins,
            SpnConfig {
                min_rows: 2000,
                multileaf: true,
                ..SpnConfig::default()
            },
        );
        let table = |spn: &Spn| -> Vec<(Vec<u16>, f64)> {
            let SpnNode::MultiLeaf { cols, keys, counts } = spn.node(spn.root()) else {
                panic!("three columns under min_rows fall back to one multi-leaf");
            };
            keys.chunks_exact(cols.len())
                .map(<[u16]>::to_vec)
                .zip(counts.iter().copied())
                .collect()
        };
        let before = table(&spn);
        assert!(before.windows(2).all(|w| w[0].0 < w[1].0), "{before:?}");
        assert_eq!(before.iter().map(|e| e.1).sum::<f64>(), 90.0);
        // One known key and one new key that sorts first.
        spn.update(&[vec![0, 0], vec![2, 0], vec![0, 0]]);
        let after = table(&spn);
        assert!(after.windows(2).all(|w| w[0].0 < w[1].0), "{after:?}");
        assert_eq!(after[0], (vec![0, 0, 0], 1.0));
        assert_eq!(after.len(), before.len() + 1);
        assert_eq!(after.iter().map(|e| e.1).sum::<f64>(), 92.0);
    }

    #[test]
    fn size_grows_with_structure() {
        let (cols, bins) = correlated_data(1200);
        let small = Spn::fit(
            &cols,
            &bins,
            SpnConfig {
                min_rows: 5000,
                ..SpnConfig::default()
            },
        );
        let big = Spn::fit(
            &cols,
            &bins,
            SpnConfig {
                min_rows: 16,
                ..SpnConfig::default()
            },
        );
        assert!(big.node_count() >= small.node_count());
        assert!(big.size_bytes() > 0);
    }
}
