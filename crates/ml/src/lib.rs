// Indexed loops are the clearest idiom in the numeric kernels below.
#![allow(clippy::needless_range_loop)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

//! Minimal ML substrate for the cardinality estimators.
//!
//! The paper's learned estimators depend on Python ML tooling (PyTorch,
//! XGBoost, SPFlow). This crate provides from-scratch Rust equivalents
//! sized for the benchmark: dense feedforward networks with manual
//! backprop and Adam ([`mlp`]), gradient-boosted regression trees
//! ([`gbdt`]), discretization ([`discretize`]), k-means ([`kmeans`]),
//! pairwise dependence scores ([`depmat`]), Chow-Liu tree learning
//! ([`chowliu`]) with tree-BN weighted-query inference ([`bayesnet`]),
//! sum-product networks with joint multi-leaves ([`spn`]), and a discrete
//! autoregressive density model with progressive sampling ([`autoreg`]).

pub mod autoreg;
pub mod bayesnet;
pub mod chowliu;
pub mod depmat;
pub mod discretize;
pub mod gbdt;
pub mod kmeans;
pub mod matrix;
pub mod mlp;
pub mod spn;
pub mod weights;

pub use autoreg::AutoRegModel;
pub use bayesnet::TreeBayesNet;
pub use chowliu::chow_liu_tree;
pub use depmat::dependence_matrix;
pub use discretize::Discretizer;
pub use gbdt::Gbdt;
pub use kmeans::kmeans;
pub use matrix::{Matrix, SparseRows};
pub use mlp::{Mlp, MlpScratch};
pub use spn::Spn;
pub use weights::{ModelScratch, WeightBatch};
