//! Dependency-free support library for the cardbench workspace.
//!
//! The build environment is fully offline, so everything that would
//! normally come from crates.io lives here instead, behind APIs that are
//! drop-in compatible with the subset the workspace uses:
//!
//! - [`rand`]: a seeded xoshiro256++ generator with the `rand`-crate call
//!   surface (`StdRng::seed_from_u64`, `gen_range`, `gen`, `gen_bool`).
//! - [`par`]: scoped-thread data parallelism (the `rayon` role): an
//!   order-preserving indexed parallel map plus thread-count resolution
//!   from `--threads`-style knobs and `CARDBENCH_THREADS`.
//! - [`json`]: a small JSON value type with parser and pretty-printer
//!   (the `serde_json` role for the results schema).
//! - [`proptest`]: a property-testing harness compatible with the
//!   `proptest!` macro subset used by the workspace's tests.
//! - [`hash`]: an FNV-1a hasher (the `fxhash` role) for hot hash maps
//!   keyed by small trusted values.

pub mod hash;
pub mod json;
pub mod par;
pub mod proptest;
pub mod rand;
