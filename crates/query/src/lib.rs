//! Query model for the cardbench workspace.
//!
//! Queries follow the paper's canonical form: a set of tables, acyclic
//! equi-join edges between them, and per-attribute constraint regions
//! `A_i ∈ R_i`. The crate also provides the *sub-plan query space* —
//! every connected sub-join of a query, which is exactly what a cost-based
//! optimizer asks a cardinality estimator about.

// Parsing and binding surface typed errors, never unwraps (tests may).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod bind;
pub mod join;
pub mod parser;
pub mod predicate;
pub mod sql;
pub mod subplan;

pub use bind::{BoundJoin, BoundPredicate, BoundQuery, BoundTable, ResolvedNames};
pub use join::{JoinEdge, JoinQuery};
pub use parser::{parse_sql, ParseError};
pub use predicate::{CompareOp, Predicate, Region};
pub use subplan::{connected_subsets, SubPlanQuery, TableMask};
