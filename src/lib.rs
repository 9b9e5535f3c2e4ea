//! # cardbench
//!
//! A full Rust reproduction of *"Cardinality Estimation in DBMS: A
//! Comprehensive Benchmark Evaluation"* (VLDB 2021): synthetic STATS /
//! STATS-CEB-style data and workloads, an in-memory query engine with a
//! PostgreSQL-shaped cost model and a pluggable-cardinality optimizer,
//! sixteen cardinality estimators (the paper's fifteen plus a
//! sketch-backed extension), and the Q-Error / P-Error metric suite.
//!
//! This facade crate re-exports every library crate of the workspace
//! under a stable path (all of `crates/` except the `cardbench` tooling
//! binary in `crates/bench`).
//! See `README.md` for a quickstart and `DESIGN.md` for the architecture.

pub use cardbench_datagen as datagen;
pub use cardbench_engine as engine;
pub use cardbench_estimators as estimators;
pub use cardbench_feedback as feedback;
pub use cardbench_harness as harness;
pub use cardbench_metrics as metrics;
pub use cardbench_ml as ml;
pub use cardbench_obs as obs;
pub use cardbench_query as query;
pub use cardbench_serve as serve;
pub use cardbench_sketch as sketch;
pub use cardbench_storage as storage;
pub use cardbench_support as support;
pub use cardbench_workload as workload;

/// Commonly used items, importable with `use cardbench::prelude::*`.
pub mod prelude {
    pub use cardbench_engine::{CostModel, PhysicalPlan};
    pub use cardbench_estimators::{CardEst, EstimatorKind};
    pub use cardbench_metrics::{p_error, q_error};
    pub use cardbench_query::{JoinQuery, Predicate, SubPlanQuery};
    pub use cardbench_storage::{Catalog, Column, Table, TableId};
    pub use cardbench_workload::{Workload, WorkloadQuery};
}
