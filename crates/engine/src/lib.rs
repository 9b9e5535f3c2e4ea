//! The query-engine substrate: what the paper uses PostgreSQL for.
//!
//! The paper's integration point with PostgreSQL is narrow and explicit:
//! *inject a cardinality for every sub-plan query; the optimizer chooses
//! join order and physical operators from those numbers; the plan is then
//! executed*. This crate reproduces that pipeline end to end:
//!
//! - [`database`]: a catalog wrapped with per-column sorted indexes.
//! - [`cost`]: a PostgreSQL-shaped cost model (seq/index scan, hash /
//!   merge / indexed-nested-loop join, hash spill penalty).
//! - [`plan`]: physical plan trees annotated with masks and row estimates.
//! - [`topology`]: the cardinality-independent shape of plan search
//!   (connected-subset lattice, partition lists, cross-product bounds),
//!   computed once per join structure and cached on the database.
//! - [`optimizer`]: exact dynamic-programming join enumeration (DPsub)
//!   driven by an injected cardinality map — the analogue of overriding
//!   `calc_joinrel_size_estimate` — replayed densely over a cached
//!   [`topology::JoinTopology`].
//! - [`executor`]: real execution of physical plans over column data.
//! - [`explain`]: EXPLAIN-style plan rendering with costs.
//! - [`truecard`]: exact sub-plan cardinalities via join-tree message
//!   passing (the oracle behind TrueCard, Q-Error and P-Error).
//!
//! Fault tolerance: estimates are sanitized at the injection point
//! ([`optimizer::clamp_row_est`], counted by [`CardMap::clamped`]) and
//! execution can run under a memory budget
//! ([`executor::try_execute_with`], failing cleanly with
//! [`executor::ExecError::BudgetExceeded`]).

// The engine sits under the fault-tolerant harness: library code must
// surface errors, not unwrap them (tests may).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cost;
pub mod database;
pub mod executor;
pub mod explain;
pub mod optimizer;
pub mod plan;
pub mod topology;
pub mod truecard;

pub use cost::CostModel;
pub use database::Database;
pub use executor::{
    execute, execute_with, join_emit_with, join_matches, join_matches_with, sort_key_runs,
    try_execute_with, Emit, ExecError, ExecScratch, ExecStats, Matches, Run, HASH_SPILL_ROWS,
};
pub use explain::explain;
pub use optimizer::{
    clamp_row_est, optimize, optimize_costed, optimize_reference, optimize_topo, optimize_with,
    plan_cost, CardMap, ClampKind,
};
pub use plan::{JoinAlgo, PhysicalPlan, ScanMethod};
pub use topology::{JoinTopology, Partition};
pub use truecard::{exact_cardinality, subplan_true_cards, TrueCardService};

/// A convenience facade bundling a database with a cost model.
#[derive(Debug)]
pub struct Engine {
    /// The indexed database.
    pub db: Database,
    /// Cost model used for planning and P-Error costing.
    pub cost: CostModel,
}

impl Engine {
    /// Creates an engine with the default cost model.
    pub fn new(db: Database) -> Engine {
        Engine {
            db,
            cost: CostModel::default(),
        }
    }
}
