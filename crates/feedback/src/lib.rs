//! Execution feedback for cardinality estimation: a concurrent cache of
//! *observed* true sub-plan cardinalities that any estimator's answers
//! can be overridden or corrected with — the adaptive design of Ivanov &
//! Bartunov (arXiv:1711.08330) transplanted onto the benchmark's
//! sub-plan space.
//!
//! The executor computes exact operator cardinalities on every timed run
//! and the planner's true-cardinality service computes exact counts for
//! every connected sub-plan; both are normally thrown away after scoring.
//! [`FeedbackStore`] keeps them, keyed two ways:
//!
//! * **exact**: the sub-plan query's `canonical_hash` (which subsumes the
//!   `(parent canonical_hash, mask)` pair — a mask projected out of its
//!   parent *is* a canonical sub-query, and hashing the projection lets
//!   identical sub-plans of different parent queries share one entry) →
//!   the last observed true cardinality. A hit replaces the inner
//!   estimate outright.
//! * **template**: the sub-plan's literal-invariant `template_hash` → a
//!   running mean of clamped log-ratios `ln(true/est)` from first
//!   observations. A hit on a *structural sibling* (same tables, joins,
//!   and predicate columns; different constants) multiplies the inner
//!   estimate by the clamped geometric-mean correction factor.
//!
//! Poisoning defenses (a chaos-wrapped estimator can feed NaN, ±inf,
//! negative, or astronomically wrong estimates into the observation
//! path): non-finite truths are rejected, non-finite/non-positive
//! estimates contribute no correction sample, every log-ratio sample is
//! clamped to `±ln(MAX_CORRECTION)`, the applied factor is clamped to
//! `[1/MAX_CORRECTION, MAX_CORRECTION]`, and the corrected product
//! saturates at `f64::MAX` — a correction can therefore never produce a
//! non-finite or negative estimate from a finite non-negative input.
//! The policy has no knobs: [`WARMUP`] and [`MAX_CORRECTION`] are
//! constants.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cardbench_engine::Database;
use cardbench_estimators::CardEst;
use cardbench_query::{JoinQuery, SubPlanQuery};
use cardbench_storage::Table;
use cardbench_support::memo::Memo;

/// Correction samples a template needs before sibling corrections
/// apply: a single noisy sample must not steer every sibling.
pub const WARMUP: u64 = 4;

/// Clamp for the multiplicative correction factor and for each
/// log-ratio sample. Exact overrides are not clamped — they are
/// observed truths.
pub const MAX_CORRECTION: f64 = 1e4;

/// Last observed truth for one exact sub-plan.
#[derive(Debug, Clone, Copy)]
struct ExactEntry {
    rows: f64,
    count: u64,
}

/// Correction accumulator for one structural template.
#[derive(Debug, Clone, Copy, Default)]
struct TemplateEntry {
    sum_log_ratio: f64,
    count: u64,
}

/// Point-in-time counters of the store (cumulative since construction).
/// Metric folding takes before/after deltas, mirroring the engine-cache
/// counter pattern.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedbackStats {
    /// Lookups answered from feedback (overrides + corrections).
    pub hits: u64,
    /// Lookups that passed the inner estimate through unchanged.
    pub misses: u64,
    /// Exact-hit lookups: inner estimate replaced by an observed truth.
    pub overrides: u64,
    /// Sibling-hit lookups: inner estimate multiplied by a clamped
    /// correction factor.
    pub corrections: u64,
    /// Observations recorded (exact entries inserted or refreshed).
    pub observations: u64,
    /// Rejected inputs: non-finite/negative truths, plus first
    /// observations whose estimate was unusable as a correction sample.
    pub rejected: u64,
    /// Distinct exact sub-plan entries.
    pub exact_entries: u64,
    /// Distinct structural templates with at least one sample.
    pub template_entries: u64,
}

/// The concurrent feedback cache. Shared across sessions/threads behind
/// an `Arc`; all methods take `&self`. Both maps are read with
/// [`Memo::peek`] and written in place with [`Memo::with`], neither
/// counted: the store counts its hits and misses itself.
#[derive(Default)]
pub struct FeedbackStore {
    exact: Memo<ExactEntry>,
    templates: Memo<TemplateEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
    overrides: AtomicU64,
    corrections: AtomicU64,
    observations: AtomicU64,
    rejected: AtomicU64,
}

impl FeedbackStore {
    /// Records one executed observation: the sub-plan's true cardinality
    /// `truth`, and the estimate `seen_est` the planner actually used for
    /// it. Returns `false` when the truth was unusable and nothing was
    /// recorded.
    ///
    /// The exact entry always takes the *latest* truth (last write wins),
    /// which is what makes the cache recover from data drift: the first
    /// post-shift execution refreshes the entry. A correction sample is
    /// added only on the *first* observation of an exact sub-plan —
    /// later re-observations would feed the template ratios of estimates
    /// this store itself already corrected.
    pub fn observe(&self, q: &JoinQuery, seen_est: f64, truth: f64) -> bool {
        if !truth.is_finite() || truth < 0.0 {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.observations.fetch_add(1, Ordering::Relaxed);
        let ch = q.canonical_hash();
        let newly = self.exact.with(ch, |entry| match entry {
            Entry::Occupied(mut e) => {
                let e = e.get_mut();
                e.rows = truth;
                e.count += 1;
                false
            }
            Entry::Vacant(v) => {
                v.insert(ExactEntry {
                    rows: truth,
                    count: 1,
                });
                true
            }
        });
        if newly {
            if seen_est.is_finite() && seen_est > 0.0 {
                let ratio = truth.max(1.0) / seen_est.max(1.0);
                let max_log = MAX_CORRECTION.ln();
                let log_r = ratio.ln().clamp(-max_log, max_log);
                self.templates.with(q.template_hash(), |entry| {
                    let t = entry.or_default();
                    t.sum_log_ratio += log_r;
                    t.count += 1;
                });
            } else {
                // A poisoned estimate (NaN/±inf/≤0) still refreshed the
                // exact entry but is useless as a correction sample.
                self.rejected.fetch_add(1, Ordering::Relaxed);
            }
        }
        true
    }

    /// Records every sub-plan of one planned-and-executed query. The
    /// three slices align index-for-index (`connected_subsets` order, as
    /// produced by the harness). Returns how many observations were
    /// recorded.
    pub fn observe_subplans(&self, subs: &[SubPlanQuery], ests: &[f64], truths: &[f64]) -> u64 {
        debug_assert_eq!(subs.len(), ests.len());
        debug_assert_eq!(subs.len(), truths.len());
        let mut recorded = 0;
        for ((sub, &e), &t) in subs.iter().zip(ests).zip(truths) {
            recorded += u64::from(self.observe(&sub.query, e, t));
        }
        recorded
    }

    /// Resolves one estimate through the cache: exact hit → the observed
    /// truth; warm sibling template → `inner` times the clamped
    /// geometric-mean correction; otherwise `inner` unchanged. Total over
    /// every `f64` bit pattern — a non-finite `inner` is passed through
    /// untouched (the harness's sanitizer owns that failure mode).
    pub fn apply(&self, q: &JoinQuery, inner: f64) -> f64 {
        if let Some(e) = self.exact.peek(q.canonical_hash()) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.overrides.fetch_add(1, Ordering::Relaxed);
            return e.rows;
        }
        if inner.is_finite() && inner >= 0.0 {
            let hit = self.templates.peek(q.template_hash());
            if let Some(t) = hit.filter(|t| t.count >= WARMUP) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.corrections.fetch_add(1, Ordering::Relaxed);
                let factor = (t.sum_log_ratio / t.count as f64)
                    .exp()
                    .clamp(1.0 / MAX_CORRECTION, MAX_CORRECTION);
                // factor is finite and positive; saturate the product so
                // a huge-but-finite inner can never correct to +inf.
                return (inner * factor).min(f64::MAX);
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        inner
    }

    /// Counter snapshot (cumulative). Fold deltas, not absolutes, into
    /// metric families when the store is shared across runs.
    pub fn stats(&self) -> FeedbackStats {
        FeedbackStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            overrides: self.overrides.load(Ordering::Relaxed),
            corrections: self.corrections.load(Ordering::Relaxed),
            observations: self.observations.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            exact_entries: self.exact.len() as u64,
            template_entries: self.templates.len() as u64,
        }
    }

    /// True when no observation has ever been recorded.
    pub fn is_empty(&self) -> bool {
        self.exact.is_empty()
    }
}

/// The feedback wrapper estimator: any inner [`CardEst`] plus a shared
/// [`FeedbackStore`]. Over a store that has seen zero observations every
/// method is a bit-identical passthrough to the inner estimator —
/// pinned by differential tests. To measure without feedback, use the
/// inner estimator itself.
pub struct FeedbackEst {
    inner: Box<dyn CardEst>,
    store: Arc<FeedbackStore>,
}

impl FeedbackEst {
    /// Wraps `inner` with the shared store.
    pub fn new(inner: Box<dyn CardEst>, store: Arc<FeedbackStore>) -> FeedbackEst {
        FeedbackEst { inner, store }
    }

    /// The shared store (for observation recording and stats).
    pub fn store(&self) -> &Arc<FeedbackStore> {
        &self.store
    }

    /// The wrapped estimator.
    pub fn inner(&self) -> &dyn CardEst {
        self.inner.as_ref()
    }
}

impl CardEst for FeedbackEst {
    fn name(&self) -> &'static str {
        "Feedback"
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.store.apply(&sub.query, self.inner.estimate(db, sub))
    }

    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        let mut out = self.inner.estimate_batch(db, subs);
        for (v, sub) in out.iter_mut().zip(subs) {
            *v = self.store.apply(&sub.query, *v);
        }
        out
    }

    fn batch_leverage(&self) -> bool {
        self.inner.batch_leverage()
    }

    fn model_size_bytes(&self) -> usize {
        self.inner.model_size_bytes()
    }

    fn is_oracle(&self) -> bool {
        self.inner.is_oracle()
    }

    fn apply_inserts(&mut self, db: &Database, delta: &[Table]) {
        self.inner.apply_inserts(db, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_query::{Predicate, Region};

    fn q(lit: i64) -> JoinQuery {
        JoinQuery::single("t", vec![Predicate::new(0, "x", Region::eq(lit))])
    }

    #[test]
    fn exact_hit_overrides_and_last_write_wins() {
        let s = FeedbackStore::default();
        assert!(s.is_empty());
        assert_eq!(s.apply(&q(1), 500.0), 500.0);
        assert!(s.observe(&q(1), 500.0, 42.0));
        assert_eq!(s.apply(&q(1), 500.0), 42.0);
        // Drift: a later observation of the same sub-plan replaces it.
        assert!(s.observe(&q(1), 42.0, 77.0));
        assert_eq!(s.apply(&q(1), 500.0), 77.0);
        let st = s.stats();
        assert_eq!(st.overrides, 2);
        assert_eq!(st.observations, 2);
        assert_eq!(st.exact_entries, 1);
    }

    #[test]
    fn sibling_correction_after_warmup() {
        let s = FeedbackStore::default();
        // WARMUP - 1 siblings, each observed 10x underestimated: below
        // the warmup nothing happens.
        for lit in 1..WARMUP as i64 {
            s.observe(&q(lit), 10.0, 100.0);
        }
        assert_eq!(s.apply(&q(100), 50.0), 50.0);
        assert_eq!(s.stats().misses, 1);
        // One more: an unseen sibling is corrected by the geometric
        // mean (10x).
        s.observe(&q(WARMUP as i64), 20.0, 200.0);
        let corrected = s.apply(&q(100), 50.0);
        assert!((corrected - 500.0).abs() < 1e-6, "corrected {corrected}");
        let st = s.stats();
        assert_eq!(st.corrections, 1);
        assert_eq!(st.template_entries, 1);
    }

    #[test]
    fn corrections_are_clamped_and_total() {
        let s = FeedbackStore::default();
        // 10^6x underestimates: each sample clamps to ln(MAX_CORRECTION).
        for lit in 1..=WARMUP as i64 {
            s.observe(&q(lit), 1.0, 1e6);
        }
        let corrected = s.apply(&q(100), 3.0);
        assert!(
            (corrected - 3.0 * MAX_CORRECTION).abs() < 1e-6,
            "corrected {corrected}"
        );
        // Poisoned truths are rejected outright.
        assert!(!s.observe(&q(101), 5.0, f64::NAN));
        assert!(!s.observe(&q(101), 5.0, f64::INFINITY));
        assert!(!s.observe(&q(101), 5.0, -1.0));
        // Poisoned estimates record the truth but no correction sample.
        assert!(s.observe(&q(102), f64::NAN, 9.0));
        assert_eq!(s.apply(&q(102), 123.0), 9.0);
        // Non-finite inner estimates pass through a template miss
        // untouched rather than turning into NaN corrections.
        assert!(s.apply(&q(103), f64::INFINITY).is_infinite());
        // A huge finite inner saturates instead of overflowing to +inf.
        let sat = s.apply(&q(104), f64::MAX);
        assert!(sat.is_finite());
        let st = s.stats();
        assert_eq!(st.rejected, 4);
    }

    #[test]
    fn wrapper_passthrough_when_empty() {
        struct Fixed;
        impl CardEst for Fixed {
            fn name(&self) -> &'static str {
                "Fixed"
            }
            fn estimate(&self, _: &Database, _: &SubPlanQuery) -> f64 {
                321.5
            }
        }
        let store = Arc::new(FeedbackStore::default());
        let db = Database::new(cardbench_storage::Catalog::new());
        let sub = SubPlanQuery {
            mask: cardbench_query::TableMask::full(1),
            query: q(1),
        };
        let on = FeedbackEst::new(Box::new(Fixed), Arc::clone(&store));
        // Empty store: passthrough.
        assert_eq!(on.estimate(&db, &sub).to_bits(), 321.5f64.to_bits());
        store.observe(&q(1), 321.5, 7.0);
        assert_eq!(on.estimate(&db, &sub), 7.0);
        assert_eq!(on.name(), "Feedback");
        assert!(!on.is_oracle() && !on.batch_leverage());
    }
}
