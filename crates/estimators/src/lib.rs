//! The fifteen cardinality estimators of the paper's evaluation, plus
//! the sketch-backed extension.
//!
//! | class | estimators |
//! |---|---|
//! | baselines | [`truecard::TrueCardEst`] |
//! | traditional | [`postgres::PostgresEst`], [`multihist::MultiHist`], [`unisample::UniSample`], [`wjsample::WjSample`], [`pessest::PessEst`] |
//! | query-driven | [`mscn::Mscn`], [`lw::LwXgb`], [`lw::LwNn`], [`uae::UaeQ`] |
//! | data-driven | [`neurocard::NeuroCardE`], [`bayescard::BayesCard`], [`deepdb::DeepDb`], [`flat::Flat`] |
//! | query+data | [`uae::Uae`] |
//! | sketch | `SketchEst` (`crates/sketch`): mergeable HLL++/count-min synopses, sharded parallel build, O(1) streaming updates |
//!
//! Shared infrastructure: [`common`] (per-table coders: discretized
//! attributes plus *fanout columns* toward every schema join edge),
//! [`fanout`] (the divide-and-conquer join estimation the paper credits
//! for BayesCard/DeepDB/FLAT), [`featurize`] (query featurization for the
//! query-driven class), and [`foj`] (uniform full-outer-join sampling for
//! NeuroCard). [`calibrate`] implements the paper's RD3 future direction:
//! tuning any estimator toward P-Error.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bayescard;
pub mod calibrate;
pub mod chaos;
pub mod common;
pub mod deepdb;
pub mod fanout;
pub mod featurize;
pub mod flat;
pub mod foj;
pub mod lw;
pub mod mscn;
pub mod multihist;
pub mod neurocard;
pub mod pessest;
pub mod postgres;
mod scratch;
pub mod truecard;
pub mod uae;
pub mod unisample;
pub mod wjsample;

use cardbench_engine::Database;
use cardbench_query::SubPlanQuery;
use cardbench_storage::Table;

/// A cardinality estimator under test.
///
/// `estimate` receives the sub-plan query and the live database (sampling
/// estimators read it at estimation time; model-based ones only at
/// construction). Implementations must return a non-negative row count.
///
/// Inference is `&self` and estimators are `Sync`: the harness fans
/// sub-plan estimation out across threads against one shared instance.
/// Methods that need randomness at inference time derive a fresh RNG per
/// call from a stored seed and the query's canonical hash, so results are
/// identical regardless of call order or thread interleaving. Mutation is
/// confined to training/update entry points (`&mut self`).
pub trait CardEst: Send + Sync {
    /// Stable display name (matches the paper's tables).
    fn name(&self) -> &'static str;

    /// Estimated cardinality of a sub-plan query.
    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64;

    /// Estimates every sub-plan of one query in a single call. The
    /// default runs [`CardEst::estimate`] per sub-plan in order; methods
    /// with real batch leverage (shared featurization, batched forward
    /// passes, one-pass enumeration) override it. Overrides MUST return
    /// results bit-identical to the sequential path, in input order —
    /// the harness treats the two as interchangeable and the
    /// differential tests enforce it.
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        subs.iter().map(|s| self.estimate(db, s)).collect()
    }

    /// Whether [`CardEst::estimate_batch`] actually amortizes work (a
    /// real override: shared featurization, batched forward passes,
    /// one-pass enumeration) rather than the sequential default. It
    /// never changes values. Only `cardbench smoke serve` and the
    /// sub-plan differential tests read it; the server routes by live
    /// sessions against cores.
    fn batch_leverage(&self) -> bool {
        false
    }

    /// Approximate model size in bytes (0 for model-free methods).
    fn model_size_bytes(&self) -> usize {
        0
    }

    /// True for the TrueCard oracle: the paper injects *precomputed* true
    /// cardinalities, so its inference latency is excluded from planning
    /// time (the harness times a warm cached call instead).
    fn is_oracle(&self) -> bool {
        false
    }

    /// Absorbs inserted rows (`delta[i]` aligns with catalog table `i`);
    /// `db` already contains the new rows. Default: no-op (no update).
    fn apply_inserts(&mut self, db: &Database, delta: &[Table]) {
        let _ = (db, delta);
    }
}

/// Identifier for each evaluated method (the rows of paper Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimatorKind {
    /// Oracle baseline.
    TrueCard,
    /// PostgreSQL-style 1-D histograms + MCVs.
    Postgres,
    /// Multi-dimensional histograms over correlated groups.
    MultiHist,
    /// Uniform per-table sampling.
    UniSample,
    /// Wander-join random walks.
    WjSample,
    /// Pessimistic bound sketch (never underestimates).
    PessEst,
    /// Multi-set convolutional network.
    Mscn,
    /// Lightweight gradient-boosted trees.
    LwXgb,
    /// Lightweight neural network.
    LwNn,
    /// Query-driven autoregressive (UAE-Q).
    UaeQ,
    /// Deep autoregressive over full-outer-join samples (NeuroCard^E).
    NeuroCardE,
    /// Chow-Liu tree Bayesian networks.
    BayesCard,
    /// Sum-product networks.
    DeepDb,
    /// FSPN (SPN + joint multi-leaves).
    Flat,
    /// Unified query+data autoregressive (UAE).
    Uae,
    /// Sketch-backed synopses: per-attribute HyperLogLog++ distinct
    /// counts plus count-min frequency sketches, combined through the
    /// distinct-count/containment join formula. Mergeable (sharded
    /// parallel build) and updatable in O(1) per streamed row; the model
    /// is kilobytes. Implemented by `SketchEst` in `crates/sketch`.
    Sketch,
    /// Execution-feedback wrapper: any inner estimator plus a cache of
    /// observed true sub-plan cardinalities that overrides (exact hit) or
    /// corrects (structural-sibling hit) the inner estimates. Not part of
    /// [`EstimatorKind::ALL`] — the paper's tables evaluate the fifteen
    /// base methods; the wrapper is the adaptive-estimation extension.
    Feedback,
}

impl EstimatorKind {
    /// All evaluated kinds: the fifteen methods of paper Table 3 in its
    /// display order, plus the sketch-backed extension.
    pub const ALL: [EstimatorKind; 16] = [
        EstimatorKind::Postgres,
        EstimatorKind::TrueCard,
        EstimatorKind::MultiHist,
        EstimatorKind::UniSample,
        EstimatorKind::WjSample,
        EstimatorKind::PessEst,
        EstimatorKind::Mscn,
        EstimatorKind::LwXgb,
        EstimatorKind::LwNn,
        EstimatorKind::UaeQ,
        EstimatorKind::NeuroCardE,
        EstimatorKind::BayesCard,
        EstimatorKind::DeepDb,
        EstimatorKind::Flat,
        EstimatorKind::Uae,
        EstimatorKind::Sketch,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EstimatorKind::TrueCard => "TrueCard",
            EstimatorKind::Postgres => "PostgreSQL",
            EstimatorKind::MultiHist => "MultiHist",
            EstimatorKind::UniSample => "UniSample",
            EstimatorKind::WjSample => "WJSample",
            EstimatorKind::PessEst => "PessEst",
            EstimatorKind::Mscn => "MSCN",
            EstimatorKind::LwXgb => "LW-XGB",
            EstimatorKind::LwNn => "LW-NN",
            EstimatorKind::UaeQ => "UAE-Q",
            EstimatorKind::NeuroCardE => "NeuroCard^E",
            EstimatorKind::BayesCard => "BayesCard",
            EstimatorKind::DeepDb => "DeepDB",
            EstimatorKind::Flat => "FLAT",
            EstimatorKind::Uae => "UAE",
            EstimatorKind::Sketch => "Sketch",
            EstimatorKind::Feedback => "Feedback",
        }
    }

    /// Method class (the "Category" column of paper Table 3).
    pub fn class(self) -> &'static str {
        match self {
            EstimatorKind::TrueCard | EstimatorKind::Postgres => "Baseline",
            EstimatorKind::MultiHist
            | EstimatorKind::UniSample
            | EstimatorKind::WjSample
            | EstimatorKind::PessEst => "Traditional",
            EstimatorKind::Mscn
            | EstimatorKind::LwXgb
            | EstimatorKind::LwNn
            | EstimatorKind::UaeQ => "Query-driven",
            EstimatorKind::NeuroCardE
            | EstimatorKind::BayesCard
            | EstimatorKind::DeepDb
            | EstimatorKind::Flat => "Data-driven",
            EstimatorKind::Uae => "Query+Data",
            EstimatorKind::Sketch => "Sketch",
            EstimatorKind::Feedback => "Adaptive",
        }
    }
}
