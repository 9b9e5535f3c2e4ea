//! Sketch-backed cardinality estimation.
//!
//! [`SketchEst`] keeps one tiny, *mergeable* synopsis per attribute: a
//! [`hll::Hll`] (HyperLogLog++) distinct-count sketch on every column
//! plus a [`cm::DyadicCm`] dyadic count-min frequency sketch on
//! filterable columns and a plain [`cm::CountMin`] on join keys. A
//! sub-plan estimate multiplies per-table sketch selectivities into the
//! standard distinct-count/containment join formula
//! `Π_t |T_t|·sel_t × Π_edges nonnull_l·nonnull_r / max(nd_l, nd_r)` —
//! the same shape as the traditional estimators' `uniform_join_card`,
//! but computed entirely from sketch state, so the model refreshes in
//! place as rows stream in. The engine's `clamp_row_est` sanitizer still
//! guards every returned value at the optimizer boundary.
//!
//! Three properties carry the whole design:
//!
//! - **Merge-closed integer state.** All sketch state is integral (u8
//!   HLL registers combined by `max`, u32 count-min cells combined by
//!   saturating `+`, u64 counts, i64 min/max); floats appear only at
//!   estimate time. Every combine is commutative and associative, so a
//!   sharded build — one sketch set per table row range, scoped threads
//!   from `cardbench_support::par`, partials merged in shard order — is
//!   *bit-identical* to the single-threaded scan, for any shard count.
//! - **O(1) streaming updates.** Inserting (or deleting) a row touches a
//!   constant number of cells per column, so `apply_inserts` absorbs a
//!   `temporal_split` delta in one pass with no retrain; for inserts the
//!   refreshed state is bit-identical to a from-scratch rebuild on the
//!   union (deletes keep counts exact but cannot shrink HLL registers or
//!   observed min/max — a documented overestimate).
//! - **Microsecond estimates.** An estimate is a few dozen array probes;
//!   no sampling, no inference pass, and `estimate_batch` memoizes
//!   per-table selectivities across sub-plans while staying bit-identical
//!   to the sequential path.
//!
//! Observability: builds run under a `sketch_build` span; merges,
//! streamed rows, and estimates tick the
//! `cardbench_sketch_{merges,inserts,deletes,estimates}_total` counter
//! families.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod cm;
pub mod est;
pub mod hll;

pub use est::{SketchEst, TableSketch};

/// Hyper-parameters of the sketch estimator. All sizes are deliberately
/// small: the whole model is kilobytes where the learned methods are
/// hundreds of kilobytes to megabytes.
#[derive(Debug, Clone)]
pub struct SketchConfig {
    /// Hash seed (mixed into every per-column hash stream).
    pub seed: u64,
    /// HyperLogLog precision `p` (`2^p` one-byte registers per column).
    pub hll_precision: u8,
    /// Count-min depth (hash rows) for both the dyadic and key sketches.
    pub cm_depth: usize,
    /// Count-min width (cells per hash row) per dyadic level.
    pub cm_width: usize,
    /// Width of the plain count-min on join-key columns.
    pub key_cm_width: usize,
    /// Build shards (row ranges per table). `0` = auto: the
    /// `CARDBENCH_THREADS` env knob, then all cores — the same
    /// resolution as the harness `--threads` flag.
    pub shards: usize,
}

impl SketchConfig {
    /// Default-shaped config with the given hash seed.
    pub fn with_seed(seed: u64) -> SketchConfig {
        SketchConfig {
            seed,
            ..SketchConfig::default()
        }
    }
}

impl Default for SketchConfig {
    fn default() -> SketchConfig {
        SketchConfig {
            seed: 0,
            hll_precision: 7,
            cm_depth: 2,
            cm_width: 16,
            key_cm_width: 32,
            shards: 0,
        }
    }
}

/// SplitMix64 finalizer: the deterministic value-hash used by every
/// sketch. No RNG anywhere — estimates must be reproducible bit-for-bit
/// across threads, sessions, and serve-layer batch coalescing.
#[inline]
pub(crate) fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// FNV-1a over a string (stable per-column seed derivation: column seeds
/// must match between a stale build and a full build so the
/// refresh-equals-retrain differential holds across catalogs).
pub(crate) fn fnv_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h = (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds one word into a running FNV-1a digest (state fingerprinting for
/// the merge/refresh bit-identity differentials).
#[inline]
pub(crate) fn fold(digest: &mut u64, word: u64) {
    *digest = (*digest ^ word).wrapping_mul(0x0000_0100_0000_01b3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spreads() {
        assert_eq!(mix64(42), mix64(42));
        assert_ne!(mix64(1), mix64(2));
        // Single-bit input changes flip about half the output bits.
        let d = (mix64(7) ^ mix64(6)).count_ones();
        assert!(d > 16, "poor avalanche: {d} bits");
    }

    #[test]
    fn fnv_str_stable() {
        assert_eq!(fnv_str("users"), fnv_str("users"));
        assert_ne!(fnv_str("users"), fnv_str("posts"));
    }
}
