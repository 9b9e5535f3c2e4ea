//! Feedforward networks with manual backprop and Adam.
//!
//! Supports the two heads the estimators need: linear output trained with
//! MSE (log-cardinality regression: MSCN, LW-NN) and softmax output
//! trained with cross-entropy (per-column conditionals of the
//! autoregressive models).

use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};

use crate::matrix::{Matrix, SparseRows};

/// One dense layer with Adam state.
#[derive(Debug, Clone)]
struct Linear {
    w: Matrix, // in × out
    b: Vec<f32>,
    // Adam moments.
    mw: Matrix,
    vw: Matrix,
    mb: Vec<f32>,
    vb: Vec<f32>,
}

impl Linear {
    fn new(inp: usize, out: usize, rng: &mut StdRng) -> Linear {
        let scale = (2.0 / inp as f32).sqrt();
        Linear {
            w: Matrix::from_fn(inp, out, |_, _| (rng.gen::<f32>() - 0.5) * 2.0 * scale),
            b: vec![0.0; out],
            mw: Matrix::zeros(inp, out),
            vw: Matrix::zeros(inp, out),
            mb: vec![0.0; out],
            vb: vec![0.0; out],
        }
    }
}

/// A multilayer perceptron with ReLU hidden activations.
#[derive(Debug, Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
    dims: Vec<usize>,
    step: u64,
}

/// Scratch space for one forward/backward pass.
struct Pass {
    /// Pre-activation inputs per layer (activations of the layer below).
    acts: Vec<Vec<f32>>,
}

/// Minibatch size for Adam steps: small enough to stay responsive on the
/// tiny training sets of the fast configs, large enough to amortize the
/// per-parameter optimizer work.
const MINIBATCH: usize = 16;

/// Accumulated minibatch gradients, shaped like the parameters.
struct Grads {
    w: Vec<Vec<f32>>,
    b: Vec<Vec<f32>>,
}

impl Mlp {
    /// Creates a network with the given layer dimensions, e.g.
    /// `[in, hidden, hidden, out]`.
    pub fn new(dims: &[usize], seed: u64) -> Mlp {
        assert!(dims.len() >= 2);
        let mut rng = StdRng::seed_from_u64(seed);
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], &mut rng))
            .collect();
        Mlp {
            layers,
            dims: dims.to_vec(),
            step: 0,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.dims[0]
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        *self.dims.last().unwrap()
    }

    /// Parameter bytes (for model-size accounting).
    pub fn param_bytes(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.heap_size() + l.b.len() * 4)
            .sum()
    }

    /// Forward pass returning the raw output (linear head).
    pub fn forward(&self, x: &[f32]) -> Vec<f32> {
        self.forward_pass(x).acts.last().unwrap().clone()
    }

    /// Forward pass returning softmax probabilities.
    pub fn forward_softmax(&self, x: &[f32]) -> Vec<f32> {
        softmax(&self.forward(x))
    }

    /// Batched forward pass over sparse input rows, returning the
    /// `n × output_dim` raw outputs (they live in `scratch`). Layers run
    /// outermost so one layer's weights stay hot across the items; each
    /// output tile of an item is accumulated in registers over the
    /// item's non-zero inputs in ascending order — the operands and the
    /// order of [`Mlp::forward`]'s skip-zero loop, so each output row is
    /// bit-identical to the per-item pass. Hidden activations go from
    /// layer to layer as sparse rows: ReLU zeroes about half of them and
    /// the next layer would skip those anyway.
    pub fn forward_sparse<'s>(&self, xs: &SparseRows, scratch: &'s mut MlpScratch) -> &'s [f32] {
        let MlpScratch {
            cur,
            next,
            row,
            out,
        } = scratch;
        let n = xs.len();
        let last = self.layers.len() - 1;
        for (li, layer) in self.layers.iter().enumerate() {
            let input: &SparseRows = if li == 0 { xs } else { cur };
            let out_dim = layer.b.len();
            if li == last {
                out.clear();
                out.resize(n * out_dim, 0.0);
                for (r, dst) in out.chunks_exact_mut(out_dim).enumerate() {
                    let (idx, val) = input.row(r);
                    sparse_affine(&layer.w.data, out_dim, Some(&layer.b), idx, val, dst);
                }
            } else {
                row.clear();
                row.resize(out_dim, 0.0);
                next.clear();
                for r in 0..n {
                    let (idx, val) = input.row(r);
                    sparse_affine(&layer.w.data, out_dim, Some(&layer.b), idx, val, row);
                    next.push_relu(0, row);
                    next.end_row();
                }
                std::mem::swap(cur, next);
            }
        }
        out
    }

    /// [`Mlp::forward_sparse`] over a dense `n × input_dim` matrix, for
    /// callers that keep no scratch.
    pub fn forward_batch(&self, xs: &Matrix) -> Matrix {
        assert_eq!(xs.cols, self.dims[0]);
        let mut rows = SparseRows::default();
        rows.fill_from_dense(&xs.data, xs.cols);
        let mut scratch = MlpScratch::default();
        let data = self.forward_sparse(&rows, &mut scratch).to_vec();
        Matrix {
            rows: xs.rows,
            cols: self.output_dim(),
            data,
        }
    }

    /// Batched forward pass returning per-row softmax probabilities,
    /// bit-identical to [`Mlp::forward_softmax`] per row.
    pub fn forward_softmax_batch(&self, xs: &Matrix) -> Matrix {
        let mut out = self.forward_batch(xs);
        for r in 0..out.rows {
            let row = &mut out.data[r * out.cols..(r + 1) * out.cols];
            let p = softmax(row);
            row.copy_from_slice(&p);
        }
        out
    }

    fn forward_pass(&self, x: &[f32]) -> Pass {
        assert_eq!(x.len(), self.dims[0]);
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.to_vec());
        for (li, layer) in self.layers.iter().enumerate() {
            let inp = &acts[li];
            let out_dim = layer.b.len();
            let mut out = layer.b.clone();
            for (i, &xi) in inp.iter().enumerate() {
                if xi == 0.0 {
                    continue;
                }
                let wrow = layer.w.row(i);
                for o in 0..out_dim {
                    out[o] += xi * wrow[o];
                }
            }
            if li + 1 < self.layers.len() {
                for v in &mut out {
                    *v = v.max(0.0); // ReLU
                }
            }
            acts.push(out);
        }
        Pass { acts }
    }

    /// Accumulates one sample's gradients (no parameter update).
    fn backward_into(&self, pass: &Pass, mut grad_out: Vec<f32>, grads: &mut Grads) {
        for li in (0..self.layers.len()).rev() {
            let inp = &pass.acts[li];
            let layer = &self.layers[li];
            let out_dim = layer.b.len();
            // Gradient w.r.t. input for the next (lower) layer.
            let mut grad_in = vec![0.0f32; inp.len()];
            let gw = &mut grads.w[li];
            for (i, &xi) in inp.iter().enumerate() {
                let wrow_start = i * out_dim;
                if xi == 0.0 {
                    // Weight grads vanish; input grad still needed.
                    for o in 0..out_dim {
                        grad_in[i] += layer.w.data[wrow_start + o] * grad_out[o];
                    }
                    continue;
                }
                for o in 0..out_dim {
                    let g = grad_out[o];
                    grad_in[i] += layer.w.data[wrow_start + o] * g;
                    gw[wrow_start + o] += xi * g;
                }
            }
            for o in 0..out_dim {
                grads.b[li][o] += grad_out[o];
            }
            if li > 0 {
                // Apply ReLU mask of the layer below.
                for (gi, &a) in grad_in.iter_mut().zip(&pass.acts[li]) {
                    if a <= 0.0 {
                        *gi = 0.0;
                    }
                }
            }
            grad_out = grad_in;
        }
    }

    /// One Adam step over the accumulated (mean) minibatch gradients.
    fn adam_step(&mut self, grads: &mut Grads, lr: f32, batch: f32) {
        self.step += 1;
        let t = self.step as f32;
        let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
        let bc1 = 1.0 - b1.powf(t);
        let bc2 = 1.0 - b2.powf(t);
        let inv = 1.0 / batch.max(1.0);
        for (li, layer) in self.layers.iter_mut().enumerate() {
            for (idx, g) in grads.w[li].iter_mut().enumerate() {
                let gw = *g * inv;
                *g = 0.0;
                let m = &mut layer.mw.data[idx];
                *m = b1 * *m + (1.0 - b1) * gw;
                let v = &mut layer.vw.data[idx];
                *v = b2 * *v + (1.0 - b2) * gw * gw;
                let mhat = layer.mw.data[idx] / bc1;
                let vhat = layer.vw.data[idx] / bc2;
                layer.w.data[idx] -= lr * mhat / (vhat.sqrt() + eps);
            }
            for (o, g) in grads.b[li].iter_mut().enumerate() {
                let gb = *g * inv;
                *g = 0.0;
                layer.mb[o] = b1 * layer.mb[o] + (1.0 - b1) * gb;
                layer.vb[o] = b2 * layer.vb[o] + (1.0 - b2) * gb * gb;
                let mhat = layer.mb[o] / bc1;
                let vhat = layer.vb[o] / bc2;
                layer.b[o] -= lr * mhat / (vhat.sqrt() + eps);
            }
        }
    }

    fn zero_grads(&self) -> Grads {
        Grads {
            w: self
                .layers
                .iter()
                .map(|l| vec![0.0; l.w.data.len()])
                .collect(),
            b: self.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
        }
    }

    /// Trains with MSE on scalar targets. `xs` is `n × input_dim`.
    pub fn train_regression(&mut self, xs: &Matrix, ys: &[f32], epochs: usize, lr: f32, seed: u64) {
        assert_eq!(xs.rows, ys.len());
        assert_eq!(self.output_dim(), 1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..xs.rows).collect();
        let mut grads = self.zero_grads();
        for _ in 0..epochs {
            shuffle(&mut order, &mut rng);
            for chunk in order.chunks(MINIBATCH) {
                for &i in chunk {
                    let pass = self.forward_pass(xs.row(i));
                    let pred = pass.acts.last().unwrap()[0];
                    let grad = vec![2.0 * (pred - ys[i])];
                    self.backward_into(&pass, grad, &mut grads);
                }
                self.adam_step(&mut grads, lr, chunk.len() as f32);
            }
        }
    }

    /// Trains with softmax cross-entropy on class labels.
    pub fn train_softmax(
        &mut self,
        xs: &Matrix,
        labels: &[usize],
        epochs: usize,
        lr: f32,
        seed: u64,
    ) {
        assert_eq!(xs.rows, labels.len());
        let k = self.output_dim();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..xs.rows).collect();
        let mut grads = self.zero_grads();
        for _ in 0..epochs {
            shuffle(&mut order, &mut rng);
            for chunk in order.chunks(MINIBATCH) {
                for &i in chunk {
                    let pass = self.forward_pass(xs.row(i));
                    let mut grad = softmax(pass.acts.last().unwrap());
                    debug_assert!(labels[i] < k);
                    grad[labels[i]] -= 1.0;
                    self.backward_into(&pass, grad, &mut grads);
                }
                self.adam_step(&mut grads, lr, chunk.len() as f32);
            }
        }
    }
}

/// Reusable buffers of [`Mlp::forward_sparse`].
#[derive(Debug, Default)]
pub struct MlpScratch {
    /// Hidden activations entering the current layer.
    cur: SparseRows,
    /// Hidden activations leaving it.
    next: SparseRows,
    /// One item's pre-activation outputs.
    row: Vec<f32>,
    /// The last layer's outputs, `n × output_dim`.
    out: Vec<f32>,
}

/// Widest output tile: sixteen `f32` accumulators are four SSE
/// registers, which leaves registers for the weight loads and the
/// broadcast input.
const TILE: usize = 16;

/// `out[o] = init[o] + Σ_k val[k] · w[idx[k]][o]` for a row-major `w` of
/// width `out.len()`; `init` of `None` starts at `0.0`. Each output is
/// one running sum over `k` in the order given, so the caller's order of
/// entries is the order of the floating-point additions. Outputs are
/// taken a tile at a time — 16 wide, then 4, then singly — with the
/// tile's sums held in registers across all `k`: a weight row is read
/// where the old kernel read-modify-wrote a whole output row per input.
pub fn sparse_affine(
    w: &[f32],
    out_dim: usize,
    init: Option<&[f32]>,
    idx: &[u32],
    val: &[f32],
    out: &mut [f32],
) {
    assert_eq!(out.len(), out_dim);
    let mut o = affine_tiles::<TILE>(w, out_dim, init, idx, val, out, 0);
    o = affine_tiles::<4>(w, out_dim, init, idx, val, out, o);
    affine_tiles::<1>(w, out_dim, init, idx, val, out, o);
}

/// The `N`-wide tiles of [`sparse_affine`] from output `o` on; returns
/// the first output left over.
#[inline(always)]
fn affine_tiles<const N: usize>(
    w: &[f32],
    out_dim: usize,
    init: Option<&[f32]>,
    idx: &[u32],
    val: &[f32],
    out: &mut [f32],
    mut o: usize,
) -> usize {
    while o + N <= out_dim {
        let mut acc = [0.0f32; N];
        if let Some(init) = init {
            acc.copy_from_slice(&init[o..o + N]);
        }
        for (&i, &x) in idx.iter().zip(val) {
            let at = i as usize * out_dim + o;
            let wrow: &[f32; N] = w[at..at + N].try_into().expect("a slice of N is [f32; N]");
            for k in 0..N {
                acc[k] += x * wrow[k];
            }
        }
        out[o..o + N].copy_from_slice(&acc);
        o += N;
    }
    o
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&v| (v - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    exps.into_iter().map(|e| e / sum.max(1e-20)).collect()
}

fn shuffle(order: &mut [usize], rng: &mut StdRng) {
    for i in (1..order.len()).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_linear_function() {
        // y = 2a - b.
        let xs = Matrix::from_fn(64, 2, |r, c| {
            if c == 0 {
                (r % 8) as f32 / 8.0
            } else {
                (r / 8) as f32 / 8.0
            }
        });
        let ys: Vec<f32> = (0..64).map(|r| 2.0 * xs.get(r, 0) - xs.get(r, 1)).collect();
        let mut net = Mlp::new(&[2, 16, 1], 7);
        net.train_regression(&xs, &ys, 200, 0.01, 1);
        let mut err = 0.0;
        for r in 0..64 {
            err += (net.forward(xs.row(r))[0] - ys[r]).abs();
        }
        assert!(err / 64.0 < 0.05, "mean abs err {}", err / 64.0);
    }

    #[test]
    fn learns_xor_classification() {
        let xs = Matrix::from_fn(4, 2, |r, c| ((r >> c) & 1) as f32);
        let labels = vec![0usize, 1, 1, 0];
        let mut net = Mlp::new(&[2, 16, 2], 3);
        net.train_softmax(&xs, &labels, 800, 0.02, 2);
        for r in 0..4 {
            let p = net.forward_softmax(xs.row(r));
            let pred = if p[1] > p[0] { 1 } else { 0 };
            assert_eq!(pred, labels[r], "row {r} probs {p:?}");
        }
    }

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn param_bytes_positive() {
        let net = Mlp::new(&[4, 8, 1], 0);
        assert_eq!(net.param_bytes(), (4 * 8 + 8 + 8 + 1) * 4);
    }

    #[test]
    fn forward_batch_bit_identical_to_per_item() {
        let net = Mlp::new(&[3, 8, 4], 5);
        // Include exact zeros to exercise the skip-zero short-circuit.
        let xs = Matrix::from_fn(7, 3, |r, c| {
            if (r + c) % 3 == 0 {
                0.0
            } else {
                (r as f32 - 2.5) * 0.3 + c as f32
            }
        });
        let batched = net.forward_batch(&xs);
        for r in 0..xs.rows {
            let single = net.forward(xs.row(r));
            for (o, &v) in single.iter().enumerate() {
                assert_eq!(v.to_bits(), batched.get(r, o).to_bits(), "row {r} out {o}");
            }
        }
    }

    #[test]
    fn sparse_affine_covers_every_tile_width() {
        // 16 + 4 + 1 + 1: all three tile widths and a repeat.
        let (inp, out_dim) = (5usize, 22usize);
        let w: Vec<f32> = (0..inp * out_dim)
            .map(|k| (k as f32 * 0.37).sin())
            .collect();
        let b: Vec<f32> = (0..out_dim).map(|o| o as f32 * 0.1 - 1.0).collect();
        let (idx, val) = ([0u32, 2, 3], [0.5f32, -1.25, 3.0]);
        for init in [None, Some(&b[..])] {
            let mut out = vec![f32::NAN; out_dim];
            sparse_affine(&w, out_dim, init, &idx, &val, &mut out);
            for o in 0..out_dim {
                let mut acc = init.map_or(0.0, |b| b[o]);
                for (&i, &x) in idx.iter().zip(&val) {
                    acc += x * w[i as usize * out_dim + o];
                }
                assert_eq!(out[o].to_bits(), acc.to_bits(), "output {o}");
            }
        }
    }

    #[test]
    fn forward_softmax_batch_bit_identical() {
        let net = Mlp::new(&[2, 6, 3], 11);
        let xs = Matrix::from_fn(5, 2, |r, c| (r * 2 + c) as f32 * 0.25);
        let batched = net.forward_softmax_batch(&xs);
        for r in 0..xs.rows {
            let single = net.forward_softmax(xs.row(r));
            for (o, &v) in single.iter().enumerate() {
                assert_eq!(v.to_bits(), batched.get(r, o).to_bits(), "row {r} out {o}");
            }
        }
    }
}
