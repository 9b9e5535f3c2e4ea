//! Dense row-major `f32` matrices — just enough linear algebra for the
//! MLPs in this workspace.

/// A dense row-major matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Row-major data, `rows * cols` long.
    pub data: Vec<f32>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Matrix {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element update.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// One row as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Transpose.
    pub fn transpose(&self) -> Matrix {
        Matrix::from_fn(self.cols, self.rows, |r, c| self.get(c, r))
    }

    /// Heap size in bytes (for model-size accounting).
    pub fn heap_size(&self) -> usize {
        self.data.len() * 4
    }
}

/// A batch of sparse `f32` rows in compressed form: the input format of
/// the inference kernels. A row lists its non-zero entries by ascending
/// column; exact zeros (either sign) are dropped on entry, because every
/// kernel here skips a zero input anyway — a stored row and its dense
/// form are the same operands in the same order.
#[derive(Debug, Clone, Default)]
pub struct SparseRows {
    /// End offset of each row in `idx`/`val`.
    ends: Vec<u32>,
    idx: Vec<u32>,
    val: Vec<f32>,
}

impl SparseRows {
    /// Empties the batch, keeping its buffers.
    pub fn clear(&mut self) {
        self.ends.clear();
        self.idx.clear();
        self.val.clear();
    }

    /// Number of finished rows.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// True without a finished row.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Appends an entry to the open row; `col` must exceed the row's
    /// previous column. A zero `v` is dropped.
    #[inline]
    pub fn push(&mut self, col: u32, v: f32) {
        if v != 0.0 {
            debug_assert!(
                self.idx.len() == self.open_start() || self.idx[self.idx.len() - 1] < col,
                "columns of a row ascend"
            );
            self.idx.push(col);
            self.val.push(v);
        }
    }

    /// Appends `ReLU(vals[k])` at column `first_col + k` for every `k`
    /// to the open row, dropping what the ReLU zeroes. Every entry is
    /// written and the write position advances only past a kept one:
    /// about half the values are dropped, a branch the predictor cannot
    /// learn.
    pub fn push_relu(&mut self, first_col: u32, vals: &[f32]) {
        let start = self.idx.len();
        self.idx.resize(start + vals.len(), 0);
        self.val.resize(start + vals.len(), 0.0);
        let (idx, val) = (&mut self.idx[start..], &mut self.val[start..]);
        let mut kept = 0;
        for (k, &v) in vals.iter().enumerate() {
            let v = v.max(0.0);
            idx[kept] = first_col + k as u32;
            val[kept] = v;
            kept += usize::from(v != 0.0);
        }
        self.idx.truncate(start + kept);
        self.val.truncate(start + kept);
    }

    /// Finishes the open row.
    #[inline]
    pub fn end_row(&mut self) {
        self.ends.push(self.idx.len() as u32);
    }

    /// Columns and values of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> (&[u32], &[f32]) {
        let lo = if r == 0 { 0 } else { self.ends[r - 1] as usize };
        let hi = self.ends[r] as usize;
        (&self.idx[lo..hi], &self.val[lo..hi])
    }

    /// Replaces `out` by the batch as dense row-major rows of width
    /// `cols`.
    pub fn scatter_dense(&self, cols: usize, out: &mut Vec<f32>) {
        out.clear();
        out.resize(self.len() * cols, 0.0);
        for (r, dst) in out.chunks_exact_mut(cols.max(1)).enumerate() {
            let (idx, val) = self.row(r);
            for (&c, &v) in idx.iter().zip(val) {
                dst[c as usize] = v;
            }
        }
    }

    fn open_start(&self) -> usize {
        self.ends.last().map_or(0, |&e| e as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_roundtrip() {
        let a = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
        let t = a.transpose();
        assert_eq!(t.rows, 3);
        assert_eq!(t.get(2, 1), a.get(1, 2));
        assert_eq!(t.transpose(), a);
    }

    #[test]
    fn sparse_rows_keep_non_zeros_in_order() {
        let mut rows = SparseRows::default();
        rows.push(1, 0.5);
        rows.push(4, 0.0);
        rows.push(7, -0.0);
        rows.push(9, -2.0);
        rows.end_row();
        rows.end_row();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.row(0), (&[1u32, 9][..], &[0.5f32, -2.0][..]));
        assert_eq!(rows.row(1), (&[][..], &[][..]));

        rows.clear();
        rows.push(0, 1.0);
        rows.push_relu(3, &[-1.0, 2.0, 0.0, -0.0, f32::NAN, 0.5]);
        rows.end_row();
        assert_eq!(rows.row(0), (&[0u32, 4, 8][..], &[1.0f32, 2.0, 0.5][..]));

        let dense = Matrix::from_fn(2, 3, |r, c| if r == c { 0.0 } else { (r + c) as f32 });
        rows.clear();
        for r in 0..dense.rows {
            for (c, &v) in dense.row(r).iter().enumerate() {
                rows.push(c as u32, v);
            }
            rows.end_row();
        }
        assert_eq!(rows.row(0), (&[1u32, 2][..], &[1.0f32, 2.0][..]));
        assert_eq!(rows.row(1), (&[0u32, 2][..], &[1.0f32, 3.0][..]));
        let mut back = vec![9.0f32; 6];
        rows.scatter_dense(3, &mut back);
        assert_eq!(back, dense.data);
    }
}
