//! The end-to-end evaluation pipeline: build datasets and workloads,
//! train every estimator, drive the optimizer with injected
//! cardinalities, execute the chosen plans, and render each table and
//! figure of the paper.
//!
//! - [`config`]: benchmark + estimator settings, dataset/workload setup.
//! - [`factory`]: constructs any estimator by kind (timing its training).
//! - [`fault`]: estimator sandboxing, the typed failure taxonomy, and
//!   per-run guard-rail options.
//! - [`endtoend`]: per-query runs (planning time, execution time,
//!   Q-Errors, P-Error) — [`QueryRun`], the one per-query record every
//!   table and observation is computed from.
//! - [`adaptive`]: sequential plan→execute→observe runs feeding executed
//!   true cardinalities back into planning, plus the drift experiment.
//! - [`checkpoint`]: the lossless [`QueryRun`] codec and its two files —
//!   append-only JSONL checkpoints for kill/resume, and the results file
//!   `report all` writes and `report observations` reads back.
//! - [`pass`]: the aggregates of a pass of [`QueryRun`]s (end-to-end
//!   time, improvement, pooled Q-/P-Errors) — the one definition every
//!   table, check and experiment aggregates through.
//! - [`report`]: text renderers for Tables 1–7, and the functions that
//!   compute the cells the observation checks read.
//! - [`observations`]: the O1–O14 shape checks, read off the tables'
//!   cells.
//! - [`update_exp`]: the dynamic-data experiment (Table 6).
//! - [`case_study`]: the Figure-2 style plan-tree case study.

// The harness must degrade gracefully, never die: library code surfaces
// errors instead of unwrapping them (tests may unwrap).
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod adaptive;
pub mod case_study;
pub mod checkpoint;
pub mod config;
pub mod endtoend;
pub mod factory;
pub mod fault;
pub mod observations;
pub mod pass;
pub mod report;
pub mod update_exp;

pub use adaptive::{run_adaptive_experiment, run_workload_adaptive, AdaptiveExperiment};
pub use checkpoint::{
    load_checkpoint, results_from_json, results_to_json, CheckpointRecord, CheckpointWriter,
    RESULT_WORKLOADS,
};
pub use config::{Bench, BenchConfig, EstimatorSettings};
pub use endtoend::{estimate_all, plan_query_via, run_workload, MethodRun, PlannedQuery, QueryRun};
pub use factory::{build_estimator, BuiltEstimator};
pub use fault::{
    guarded_estimate, guarded_estimate_batch, EstFailure, EstimateError, QueryFailure, RunOptions,
};
pub use observations::{check_observations, render_checks, ObservationCheck};
pub use update_exp::{run_update_experiment, UpdateResult, UpdateRow, UPDATABLE};
