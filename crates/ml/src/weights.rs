//! Packed per-bin weight vectors: the query format of the per-table
//! models ([`crate::TreeBayesNet`], [`crate::Spn`]).
//!
//! A query over a model with `k` columns is `k` optional weight vectors
//! (`None` = the constant 1, column unconstrained). A batch of them is
//! one offset table into one `f64` slab, which a caller refills without
//! allocating.

/// The weight sets of a batch of queries over one model's columns.
#[derive(Debug, Clone, Default)]
pub struct WeightBatch {
    cols: usize,
    items: usize,
    /// `item × col → (offset, length)` into `slab`; length 0 = `None`.
    spans: Vec<(u32, u32)>,
    slab: Vec<f64>,
}

impl WeightBatch {
    /// Empties the batch for a model with `cols` columns, keeping the
    /// buffers.
    pub fn reset(&mut self, cols: usize) {
        self.cols = cols;
        self.items = 0;
        self.spans.clear();
        self.slab.clear();
    }

    /// Columns per item.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items
    }

    /// True without an item.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Appends an item with every column unconstrained; returns its
    /// index.
    pub fn push_item(&mut self) -> usize {
        self.spans.resize(self.spans.len() + self.cols, (0, 0));
        self.items += 1;
        self.items - 1
    }

    /// Multiplies column `col` of `item` by `w` elementwise; an
    /// unconstrained column becomes `w`. `w` must not be empty.
    pub fn merge(&mut self, item: usize, col: usize, w: &[f64]) {
        debug_assert!(!w.is_empty());
        let span = &mut self.spans[item * self.cols + col];
        if span.1 == 0 {
            *span = (self.slab.len() as u32, w.len() as u32);
            self.slab.extend_from_slice(w);
        } else {
            let cur = &mut self.slab[span.0 as usize..(span.0 + span.1) as usize];
            for (c, v) in cur.iter_mut().zip(w) {
                *c *= v;
            }
        }
    }

    /// Appends an item from one optional weight vector per column.
    pub fn push_options(&mut self, weights: &[Option<Vec<f64>>]) {
        assert_eq!(weights.len(), self.cols);
        let item = self.push_item();
        for (col, w) in weights.iter().enumerate() {
            if let Some(w) = w {
                self.merge(item, col, w);
            }
        }
    }

    /// The weights of column `col` of `item`; `None` = unconstrained.
    #[inline]
    pub fn get(&self, item: usize, col: usize) -> Option<&[f64]> {
        let (off, len) = self.spans[item * self.cols + col];
        (len != 0).then(|| &self.slab[off as usize..(off + len) as usize])
    }
}

/// Reusable buffers of the model kernels, by role.
#[derive(Debug, Default)]
pub struct ModelScratch {
    /// Node values: BN messages by node, SPN values by active node and
    /// item.
    pub(crate) vals: Vec<f64>,
    /// Per node: BN "a constrained node is in my subtree"; SPN row of
    /// the node in `vals`.
    pub(crate) slots: Vec<u32>,
    /// SPN: constrained-column mask per item.
    pub(crate) masks: Vec<u64>,
    /// One node's accumulators.
    pub(crate) acc: Vec<f64>,
    /// One node's current terms.
    pub(crate) term: Vec<f64>,
}
