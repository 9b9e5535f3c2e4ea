//! In-memory column-oriented storage substrate for the cardbench workspace.
//!
//! The paper's evaluation treats every attribute as categorical-or-numeric
//! with an integer-mappable domain, so storage is deliberately simple: every
//! column is a vector of `i64` values plus a null bitmap. Tables are
//! immutable-after-load except for bulk [`Table::append_rows`], which is the
//! primitive the dynamic-update experiment (paper Table 6) drives.
//!
//! Layout:
//! - [`value`]: nullable datum type and helpers.
//! - [`column`](mod@column): columns with null bitmaps and cached statistics.
//! - [`schema`]: column/table schemas and join-relation metadata.

// Load/append paths surface typed errors, never unwraps (tests may).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]
//! - [`table`]: row/column access and bulk append.
//! - [`catalog`]: the database — named tables plus the join graph.
//! - [`csv`]: plain-text persistence for datasets.

pub mod catalog;
pub mod column;
pub mod csv;
pub mod error;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::{Catalog, TableId};
pub use column::{Column, ColumnStats};
pub use error::StorageError;
pub use schema::{ColumnDef, ColumnKind, JoinKind, JoinRelation, TableSchema};
pub use table::Table;
pub use value::Datum;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StorageError>;
