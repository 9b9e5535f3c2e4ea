//! The repository's one fault injector: deterministic, keyed draws of
//! a fault class, used per estimator call ([`ChaosEst`], keyed by the
//! sub-plan's [`cardbench_query::JoinQuery::canonical_hash`]) and per
//! serving tick (the serve crate's tick chaos, keyed by the tick index).
//!
//! [`ChaosConfig::draw`] seeds a fresh `StdRng` with `seed ^ key` — the
//! same recipe the sampling estimators use for per-call RNGs — so a
//! given `(seed, key)` pair always draws the same fault regardless of
//! thread count, call order, or resume. That determinism is what lets
//! tier-1 tests assert a faulted run + resume equals a clean faulted
//! run. Each site has its own class type, so neither site can be handed
//! a class it cannot honour.
//!
//! `ChaosEst` wraps any [`CardEst`] and, for a `rate` fraction of
//! sub-plan queries, replaces the inner estimate with a fault: a panic,
//! a NaN/±inf/negative/zero estimate, or a wall-clock delay (to trip the
//! harness's per-query budget).

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};

use cardbench_engine::Database;
use cardbench_query::SubPlanQuery;

use crate::CardEst;

/// A fault schedule over the class set `C`: each keyed draw faults with
/// probability `rate`, picking uniformly among `classes`.
#[derive(Debug, Clone)]
pub struct ChaosConfig<C> {
    /// Seed of the keyed draws.
    pub seed: u64,
    /// Fault probability per draw, in `[0, 1]`; `0` disables injection.
    pub rate: f64,
    /// The classes a fault picks from; empty disables injection.
    pub classes: Vec<C>,
    /// How long a stalling class sleeps.
    pub stall: Duration,
    /// Injected panics allowed over the injector's lifetime; `None` (the
    /// default) is unbounded, which keeps every draw order-independent.
    pub max_panics: Option<u32>,
}

impl<C> Default for ChaosConfig<C> {
    fn default() -> ChaosConfig<C> {
        ChaosConfig {
            seed: 0,
            rate: 0.0,
            classes: Vec::new(),
            stall: Duration::from_millis(50),
            max_panics: None,
        }
    }
}

impl<C: Copy> ChaosConfig<C> {
    /// The fault drawn for `key`, if any — pure and deterministic, so
    /// tests can predict exactly which calls or ticks misbehave.
    pub fn draw(&self, key: u64) -> Option<C> {
        if self.classes.is_empty() || self.rate <= 0.0 {
            return None;
        }
        let mut rng = StdRng::seed_from_u64(self.seed ^ key);
        if !rng.gen_bool(self.rate) {
            return None;
        }
        let i = rng.gen_range(0..self.classes.len());
        Some(self.classes[i])
    }

    /// Spends one injected panic from `spent`, the site's running count:
    /// `false` once `max_panics` have fired, and the drawn panic is then
    /// not injected.
    pub fn spend_panic(&self, spent: &AtomicU32) -> bool {
        spent
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                match self.max_panics {
                    Some(max) if n >= max => None,
                    _ => Some(n.saturating_add(1)),
                }
            })
            .is_ok()
    }
}

/// One injectable estimator-call fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// `panic!` inside `estimate` (caught by the harness sandbox).
    Panic,
    /// Returns `f64::NAN`.
    Nan,
    /// Returns `f64::INFINITY`.
    PosInf,
    /// Returns `f64::NEG_INFINITY`.
    NegInf,
    /// Returns a negative row count.
    Negative,
    /// Returns `0.0`.
    Zero,
    /// Sleeps for the configured stall, then answers normally (used to
    /// exercise the harness's wall-clock budget).
    Delay,
}

impl FaultClass {
    /// Every class, in the order the picker indexes them.
    pub const ALL: [FaultClass; 7] = [
        FaultClass::Panic,
        FaultClass::Nan,
        FaultClass::PosInf,
        FaultClass::NegInf,
        FaultClass::Negative,
        FaultClass::Zero,
        FaultClass::Delay,
    ];

    /// The value-fault classes: everything except `Panic` and `Delay`.
    /// These corrupt the estimate without panicking or sleeping, so runs
    /// that need deterministic wall-clock behaviour (resume equality
    /// tests) can restrict injection to them.
    pub const VALUES: [FaultClass; 5] = [
        FaultClass::Nan,
        FaultClass::PosInf,
        FaultClass::NegInf,
        FaultClass::Negative,
        FaultClass::Zero,
    ];

    /// Stable display name (used in failure records and reports).
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Panic => "panic",
            FaultClass::Nan => "nan",
            FaultClass::PosInf => "+inf",
            FaultClass::NegInf => "-inf",
            FaultClass::Negative => "negative",
            FaultClass::Zero => "zero",
            FaultClass::Delay => "delay",
        }
    }
}

/// Fault-injecting wrapper around any estimator.
pub struct ChaosEst {
    inner: Box<dyn CardEst>,
    cfg: ChaosConfig<FaultClass>,
    panics: AtomicU32,
}

impl ChaosEst {
    /// Wraps `inner`, faulting sub-plan estimates on `cfg`'s schedule.
    pub fn new(inner: Box<dyn CardEst>, cfg: ChaosConfig<FaultClass>) -> ChaosEst {
        ChaosEst {
            inner,
            cfg,
            panics: AtomicU32::new(0),
        }
    }

    /// The fault this wrapper draws for `query`, if any (before the
    /// panic budget) — pure and deterministic, so tests can predict
    /// exactly which sub-plans of a workload misbehave.
    pub fn fault_for(&self, query: &cardbench_query::JoinQuery) -> Option<FaultClass> {
        self.cfg.draw(query.canonical_hash())
    }

    /// Injects `sub`'s fault: panics or stalls, and returns the faulted
    /// value; `None` when the inner estimator answers the slot.
    fn inject(&self, sub: &SubPlanQuery) -> Option<f64> {
        match self.fault_for(&sub.query)? {
            FaultClass::Panic if self.cfg.spend_panic(&self.panics) => {
                panic!("chaos: injected panic")
            }
            FaultClass::Panic => None,
            FaultClass::Nan => Some(f64::NAN),
            FaultClass::PosInf => Some(f64::INFINITY),
            FaultClass::NegInf => Some(f64::NEG_INFINITY),
            FaultClass::Negative => Some(-42.0),
            FaultClass::Zero => Some(0.0),
            FaultClass::Delay => {
                std::thread::sleep(self.cfg.stall);
                None
            }
        }
    }
}

impl CardEst for ChaosEst {
    fn name(&self) -> &'static str {
        "Chaos"
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.inject(sub)
            .unwrap_or_else(|| self.inner.estimate(db, sub))
    }

    /// Applies each slot's fault in slot order, then answers the slots
    /// left unfaulted with one inner `estimate_batch`.
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        let faulted: Vec<Option<f64>> = subs.iter().map(|s| self.inject(s)).collect();
        if faulted.iter().all(Option::is_none) {
            return self.inner.estimate_batch(db, subs);
        }
        let clean: Vec<SubPlanQuery> = subs
            .iter()
            .zip(&faulted)
            .filter(|(_, f)| f.is_none())
            .map(|(s, _)| s.clone())
            .collect();
        let mut answers = self.inner.estimate_batch(db, &clean).into_iter();
        let mut out: Vec<f64> = faulted
            .into_iter()
            .map_while(|f| f.or_else(|| answers.next()))
            .collect();
        // An inner batch of the wrong arity stays the wrong arity.
        out.extend(answers);
        out
    }

    fn batch_leverage(&self) -> bool {
        self.inner.batch_leverage()
    }

    fn model_size_bytes(&self) -> usize {
        self.inner.model_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truecard::TrueCardEst;
    use cardbench_engine::Database;
    use cardbench_query::{JoinQuery, Predicate, Region, TableMask};
    use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

    fn db() -> Database {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_columns(
                TableSchema::new(
                    "a",
                    vec![
                        ColumnDef::new("id", ColumnKind::PrimaryKey),
                        ColumnDef::new("v", ColumnKind::Numeric),
                    ],
                ),
                vec![
                    Column::from_values(vec![1, 2, 3, 4]),
                    Column::from_values(vec![1, 1, 2, 2]),
                ],
            )
            .unwrap(),
        );
        Database::new(cat)
    }

    fn chaos(seed: u64, rate: f64, classes: &[FaultClass]) -> ChaosEst {
        let cfg = ChaosConfig {
            seed,
            rate,
            classes: classes.to_vec(),
            ..ChaosConfig::default()
        };
        ChaosEst::new(Box::new(TrueCardEst::new()), cfg)
    }

    fn wrapped(rate: f64, seed: u64) -> ChaosEst {
        chaos(seed, rate, &FaultClass::ALL)
    }

    fn queries(n: i64) -> Vec<JoinQuery> {
        (0..n)
            .map(|i| JoinQuery::single("a", vec![Predicate::new(0, "v", Region::le(i))]))
            .collect()
    }

    #[test]
    fn zero_rate_is_transparent() {
        let db = db();
        let est = wrapped(0.0, 1);
        for q in queries(20) {
            assert_eq!(est.fault_for(&q), None);
            let sub = SubPlanQuery {
                mask: TableMask::single(0),
                query: q,
            };
            assert!(est.estimate(&db, &sub).is_finite());
        }
    }

    #[test]
    fn fault_rate_roughly_matches() {
        let est = wrapped(0.3, 7);
        let faulted = queries(500)
            .iter()
            .filter(|q| est.fault_for(q).is_some())
            .count();
        assert!(
            (100..=200).contains(&faulted),
            "expected ~150/500 faults at 30%, got {faulted}"
        );
    }

    #[test]
    fn faults_are_deterministic_per_query() {
        let a = wrapped(0.5, 42);
        let b = wrapped(0.5, 42);
        let c = wrapped(0.5, 43);
        let qs = queries(100);
        let fa: Vec<_> = qs.iter().map(|q| a.fault_for(q)).collect();
        let fb: Vec<_> = qs.iter().map(|q| b.fault_for(q)).collect();
        let fc: Vec<_> = qs.iter().map(|q| c.fault_for(q)).collect();
        assert_eq!(fa, fb, "same seed must fault identically");
        assert_ne!(fa, fc, "different seed must fault differently");
    }

    #[test]
    fn value_faults_produce_advertised_values() {
        let db = db();
        for class in FaultClass::VALUES {
            let est = chaos(0, 1.0, &[class]);
            let q = JoinQuery::single("a", vec![]);
            assert_eq!(est.fault_for(&q), Some(class));
            let sub = SubPlanQuery {
                mask: TableMask::single(0),
                query: q,
            };
            let v = est.estimate(&db, &sub);
            match class {
                FaultClass::Nan => assert!(v.is_nan()),
                FaultClass::PosInf => assert_eq!(v, f64::INFINITY),
                FaultClass::NegInf => assert_eq!(v, f64::NEG_INFINITY),
                FaultClass::Negative => assert!(v < 0.0),
                FaultClass::Zero => assert_eq!(v, 0.0),
                FaultClass::Panic | FaultClass::Delay => unreachable!(),
            }
        }
    }

    #[test]
    fn panic_fault_panics() {
        let db = db();
        let est = chaos(0, 1.0, &[FaultClass::Panic]);
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: JoinQuery::single("a", vec![]),
        };
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| est.estimate(&db, &sub)));
        assert!(r.is_err(), "panic class must actually panic");
    }

    /// `max_panics` bounds the injected panics; past the budget a drawn
    /// panic answers with the inner estimator.
    #[test]
    fn panic_budget_is_enforced() {
        let db = db();
        let est = ChaosEst::new(
            Box::new(TrueCardEst::new()),
            ChaosConfig {
                rate: 1.0,
                classes: vec![FaultClass::Panic],
                max_panics: Some(2),
                ..ChaosConfig::default()
            },
        );
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: JoinQuery::single("a", vec![]),
        };
        let panicked = (0..8)
            .filter(|_| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| est.estimate(&db, &sub)))
                    .is_err()
            })
            .count();
        assert_eq!(panicked, 2);
        assert_eq!(est.estimate(&db, &sub), 4.0);
    }

    /// The batch path answers each slot what `estimate` answers it:
    /// faulted slots their fault's value, the rest the inner batch's.
    #[test]
    fn batch_matches_per_slot_estimates() {
        let db = db();
        let est = chaos(5, 0.5, &FaultClass::VALUES);
        let subs: Vec<SubPlanQuery> = queries(40)
            .into_iter()
            .map(|query| SubPlanQuery {
                mask: TableMask::single(0),
                query,
            })
            .collect();
        assert!(subs.iter().any(|s| est.fault_for(&s.query).is_some()));
        assert!(subs.iter().any(|s| est.fault_for(&s.query).is_none()));
        let batch = est.estimate_batch(&db, &subs);
        assert_eq!(batch.len(), subs.len());
        for (sub, b) in subs.iter().zip(&batch) {
            assert_eq!(est.estimate(&db, sub).to_bits(), b.to_bits());
        }
    }
}
