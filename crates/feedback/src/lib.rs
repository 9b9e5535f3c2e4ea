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
//! clamped to `±ln(max_correction)`, the applied factor is clamped to
//! `[1/max_correction, max_correction]`, and the corrected product
//! saturates at `f64::MAX` — a correction can therefore never produce a
//! non-finite or negative estimate from a finite non-negative input.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cardbench_engine::Database;
use cardbench_estimators::CardEst;
use cardbench_query::{JoinQuery, SubPlanQuery};
use cardbench_storage::Table;
use cardbench_support::memo::Memo;

/// Tuning knobs of the feedback cache.
#[derive(Debug, Clone, Copy)]
pub struct FeedbackConfig {
    /// Minimum correction samples on a template before sibling
    /// corrections apply (the warmup: a single noisy sample must not
    /// steer every sibling).
    pub warmup: u64,
    /// Clamp for the multiplicative correction factor and for each
    /// log-ratio sample (`> 1`). Exact overrides are not clamped — they
    /// are observed truths.
    pub max_correction: f64,
}

impl Default for FeedbackConfig {
    fn default() -> FeedbackConfig {
        FeedbackConfig {
            warmup: 4,
            max_correction: 1e4,
        }
    }
}

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
pub struct FeedbackStore {
    cfg: FeedbackConfig,
    exact: Memo<ExactEntry>,
    templates: Memo<TemplateEntry>,
    hits: AtomicU64,
    misses: AtomicU64,
    overrides: AtomicU64,
    corrections: AtomicU64,
    observations: AtomicU64,
    rejected: AtomicU64,
}

impl Default for FeedbackStore {
    fn default() -> FeedbackStore {
        FeedbackStore::new(FeedbackConfig::default())
    }
}

impl FeedbackStore {
    /// An empty store with the given knobs.
    pub fn new(cfg: FeedbackConfig) -> FeedbackStore {
        assert!(cfg.max_correction > 1.0, "max_correction must exceed 1");
        FeedbackStore {
            cfg,
            exact: Memo::default(),
            templates: Memo::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            overrides: AtomicU64::new(0),
            corrections: AtomicU64::new(0),
            observations: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> FeedbackConfig {
        self.cfg
    }

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
                let max_log = self.cfg.max_correction.ln();
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
            if let Some(t) = hit.filter(|t| t.count >= self.cfg.warmup) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.corrections.fetch_add(1, Ordering::Relaxed);
                let factor = (t.sum_log_ratio / t.count as f64)
                    .exp()
                    .clamp(1.0 / self.cfg.max_correction, self.cfg.max_correction);
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
/// [`FeedbackStore`]. With feedback `enabled == false` (or a store that
/// has seen zero observations) every method is a bit-identical
/// passthrough to the inner estimator — pinned by differential tests.
pub struct FeedbackEst {
    inner: Box<dyn CardEst>,
    store: Arc<FeedbackStore>,
    enabled: bool,
}

impl FeedbackEst {
    /// Wraps `inner` with the shared store.
    pub fn new(inner: Box<dyn CardEst>, store: Arc<FeedbackStore>, enabled: bool) -> FeedbackEst {
        FeedbackEst {
            inner,
            store,
            enabled,
        }
    }

    /// The shared store (for observation recording and stats).
    pub fn store(&self) -> &Arc<FeedbackStore> {
        &self.store
    }

    /// Whether feedback resolution is active.
    pub fn enabled(&self) -> bool {
        self.enabled
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
        let e = self.inner.estimate(db, sub);
        if !self.enabled {
            return e;
        }
        self.store.apply(&sub.query, e)
    }

    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        let mut out = self.inner.estimate_batch(db, subs);
        if self.enabled {
            for (v, sub) in out.iter_mut().zip(subs) {
                *v = self.store.apply(&sub.query, *v);
            }
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

    fn supports_update(&self) -> bool {
        self.inner.supports_update()
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
        let cfg = FeedbackConfig {
            warmup: 2,
            max_correction: 1e4,
        };
        let s = FeedbackStore::new(cfg);
        // Two siblings, each observed 10x underestimated.
        s.observe(&q(1), 10.0, 100.0);
        s.observe(&q(2), 20.0, 200.0);
        // A third, unseen sibling: corrected by the geometric mean (10x).
        let corrected = s.apply(&q(3), 50.0);
        assert!((corrected - 500.0).abs() < 1e-6, "corrected {corrected}");
        let st = s.stats();
        assert_eq!(st.corrections, 1);
        assert_eq!(st.template_entries, 1);
        // Below warmup nothing happens.
        let s2 = FeedbackStore::new(FeedbackConfig { warmup: 3, ..cfg });
        s2.observe(&q(1), 10.0, 100.0);
        s2.observe(&q(2), 20.0, 200.0);
        assert_eq!(s2.apply(&q(3), 50.0), 50.0);
        assert_eq!(s2.stats().misses, 1);
    }

    #[test]
    fn corrections_are_clamped_and_total() {
        let s = FeedbackStore::new(FeedbackConfig {
            warmup: 1,
            max_correction: 100.0,
        });
        // A 10^6x underestimate: the sample clamps to ln(100).
        s.observe(&q(1), 1.0, 1e6);
        let corrected = s.apply(&q(2), 3.0);
        assert!((corrected - 300.0).abs() < 1e-6, "corrected {corrected}");
        // Poisoned truths are rejected outright.
        assert!(!s.observe(&q(3), 5.0, f64::NAN));
        assert!(!s.observe(&q(3), 5.0, f64::INFINITY));
        assert!(!s.observe(&q(3), 5.0, -1.0));
        // Poisoned estimates record the truth but no correction sample.
        assert!(s.observe(&q(4), f64::NAN, 9.0));
        assert_eq!(s.apply(&q(4), 123.0), 9.0);
        // Non-finite inner estimates pass through a template miss
        // untouched rather than turning into NaN corrections.
        assert!(s.apply(&q(5), f64::INFINITY).is_infinite());
        // A huge finite inner saturates instead of overflowing to +inf.
        let sat = s.apply(&q(6), f64::MAX);
        assert!(sat.is_finite());
        let st = s.stats();
        assert_eq!(st.rejected, 4);
    }

    #[test]
    fn wrapper_passthrough_when_disabled_or_empty() {
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
        let on = FeedbackEst::new(Box::new(Fixed), Arc::clone(&store), true);
        // Empty store: passthrough even when enabled.
        assert_eq!(on.estimate(&db, &sub).to_bits(), 321.5f64.to_bits());
        store.observe(&q(1), 321.5, 7.0);
        assert_eq!(on.estimate(&db, &sub), 7.0);
        // Disabled wrapper ignores a warm store.
        let off = FeedbackEst::new(Box::new(Fixed), Arc::clone(&store), false);
        assert_eq!(off.estimate(&db, &sub).to_bits(), 321.5f64.to_bits());
        assert_eq!(on.name(), "Feedback");
        assert!(!on.is_oracle() && !on.supports_update() && !on.batch_leverage());
    }
}
