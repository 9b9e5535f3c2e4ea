//! Synthetic dataset generation reproducing the statistical profiles of the
//! paper's two benchmark datasets.
//!
//! The real STATS dump (Stack-Exchange) and the IMDB subset are not
//! available offline, so this crate builds *profile-equivalent* synthetic
//! datasets (see DESIGN.md §1, substitution 1): the same table/attribute
//! structure, the Figure-1 join graph, Zipf-skewed marginals, planted
//! intra-table correlation through latent activity variables, and skewed
//! join-key degree distributions. Everything is deterministic given a seed.
//!
//! - [`dist`]: Zipf and latent-correlated samplers.
//! - [`stats`]: the 8-table STATS-profile dataset (paper Figure 1).
//! - [`imdb`]: the 6-table simplified-IMDB star-schema dataset (JOB-LIGHT).
//! - [`profile`]: dataset statistics reported in paper Table 1.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod dist;
pub mod imdb;
pub mod profile;
pub mod stats;

pub use dist::{LatentRowModel, Zipf};
pub use imdb::{imdb_catalog, ImdbConfig};
pub use profile::{dataset_profile, DatasetProfile};
pub use stats::{stats_catalog, StatsConfig};
