//! The inference scratch: every buffer a warm `estimate_batch` of the
//! six batched families writes, kept per thread; UAE-Q and UAE use it
//! too.
//!
//! [`crate::CardEst`] is called through `&self` from harness workers and
//! concurrent serve sessions at once, and its signature has no room for a
//! caller's arena, so the arena is thread-local: reached without a lock,
//! grown to the largest batch the thread has served and then reused. A
//! warm call of the six allocates its returned `Vec<f64>` and nothing
//! else. The scratch carries buffers, never results: nothing computed
//! for one call is read by the next.

use std::cell::RefCell;

use cardbench_ml::{MlpScratch, SparseRows};

use crate::fanout::FanoutScratch;
use crate::featurize::FeatureScratch;

/// Buffers by role; each has one user at a time.
#[derive(Default)]
pub(crate) struct InferScratch {
    /// Name resolution and entry staging of the featurizer.
    pub feat: FeatureScratch,
    /// Featurized sub-plans, one sparse row each.
    pub rows: SparseRows,
    /// MSCN: pooled module embeddings, one sparse row per sub-plan.
    pub pooled: SparseRows,
    /// MSCN: one sub-plan's pooled embedding before ReLU. LW-XGB: the
    /// dense feature rows the trees index. UAE: one sub-plan's per-table
    /// selectivities.
    pub dense: Vec<f32>,
    /// LW-XGB: one prediction per sub-plan.
    pub preds: Vec<f32>,
    /// Hidden activations and outputs of the MLP kernels.
    pub mlp: MlpScratch,
    /// Plan compilation and model evaluation of the fanout families.
    pub fanout: FanoutScratch,
}

thread_local! {
    static SCRATCH: RefCell<InferScratch> = RefCell::new(InferScratch::default());
}

/// Runs `f` on this thread's scratch. Estimators do not call each other
/// from inside `f`, so the borrow is never contended.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut InferScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
