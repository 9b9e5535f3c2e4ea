//! Differential tests for the amortized sub-plan pipeline that are not
//! per estimator kind (those are the conformance table's columns,
//! `tests/conformance.rs` at the repository root):
//!
//! - chaos value faults (NaN/±inf/negative/zero) propagate unchanged
//!   through the batch path, and the fault schedule is pinned;
//! - the engine's one-pass true-cardinality enumerator
//!   ([`subplan_true_cards`]) is bit-identical to per-mask
//!   [`exact_cardinality`] on real STATS-schema queries.

use std::hash::Hasher;
use std::sync::OnceLock;

use cardbench_engine::{exact_cardinality, subplan_true_cards, TrueCardService};
use cardbench_estimators::chaos::{ChaosConfig, ChaosEst, FaultClass};
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_harness::{build_estimator, Bench, BenchConfig};
use cardbench_query::{connected_subsets, JoinQuery, SubPlanQuery};
use cardbench_support::hash::FnvHasher;
use cardbench_support::proptest::prelude::*;
use cardbench_workload::{stats_ceb, WorkloadConfig};

/// One shared tier-1 benchmark for the whole test binary.
fn bench() -> &'static Bench {
    static B: OnceLock<Bench> = OnceLock::new();
    B.get_or_init(|| Bench::build(BenchConfig::fast(9)))
}

/// Random acyclic 2–5-table queries on the STATS schema, derived from a
/// proptest-chosen generator seed.
fn random_queries(seed: u64) -> Vec<JoinQuery> {
    let b = bench();
    let cfg = WorkloadConfig {
        seed,
        templates: 6,
        queries: 3,
        max_tables: 5,
        max_predicates: 4,
        retries: 10,
        max_subplan_card: 1e6,
    };
    let wl = stats_ceb(&b.stats_db, &cfg);
    wl.queries.into_iter().map(|wq| wq.query).collect()
}

/// FNV-1a over the words.
fn digest(bits: &[u64]) -> u64 {
    let mut h = FnvHasher::default();
    bits.iter().for_each(|&b| h.write_u64(b));
    h.finish()
}

/// Builds the estimator a chaos wrapper faults.
fn inner(kind: EstimatorKind) -> Box<dyn CardEst> {
    let b = bench();
    build_estimator(kind, &b.stats_db, &b.stats_train, &b.config.settings).est
}

/// What `ChaosEst::fault_for` decided at the commit before the serving
/// and estimator fault injectors shared one draw: the FNV digest, over
/// class sets `ALL`, `VALUES` and `[Panic]` × seeds 7 and 8 at rate 0.5,
/// of each sub-plan query's fault (`0` clean, `1 + ` its index in
/// `FaultClass::ALL`), for every sub-plan of [`random_queries`] 0..16.
const CHAOS_SCHEDULE_GOLDEN: (u64, usize) = (0x74ad691d2952c303, 309);

#[test]
fn chaos_schedule_matches_the_golden() {
    let queries: Vec<JoinQuery> = (0..16)
        .flat_map(random_queries)
        .flat_map(|q| SubPlanQuery::project_all(&q))
        .map(|s| s.query)
        .collect();
    assert!(queries.len() >= 256, "{} queries", queries.len());
    let mut words = Vec::new();
    for classes in [
        FaultClass::ALL.to_vec(),
        FaultClass::VALUES.to_vec(),
        vec![FaultClass::Panic],
    ] {
        for seed in [7, 8] {
            let cfg = ChaosConfig {
                seed,
                rate: 0.5,
                classes: classes.clone(),
                ..ChaosConfig::default()
            };
            let est = ChaosEst::new(inner(EstimatorKind::Postgres), cfg);
            words.extend(queries.iter().map(|q| {
                est.fault_for(q).map_or(0, |c| {
                    1 + FaultClass::ALL.iter().position(|&a| a == c).unwrap() as u64
                })
            }));
        }
    }
    let got = (digest(&words), queries.len());
    assert_eq!(got, CHAOS_SCHEDULE_GOLDEN, "{got:#x?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Chaos value faults (NaN, ±inf, negative, zero) flow through the
    /// batch path unchanged: a faulted wrapper over a batching kind
    /// answers its batch, faulted slots and the inner batch's alike,
    /// bit for bit as it answers each sub-plan.
    #[test]
    fn estimate_batch_bit_identical_under_chaos_values(
        seed in 0u64..1000,
        chaos_seed in 0u64..1000,
    ) {
        let cfg = ChaosConfig {
            seed: chaos_seed,
            rate: 0.6,
            classes: FaultClass::VALUES.to_vec(),
            ..ChaosConfig::default()
        };
        let est = ChaosEst::new(inner(EstimatorKind::BayesCard), cfg);
        prop_assert!(est.batch_leverage());
        let db = &bench().stats_db;
        for subs in random_queries(seed).iter().map(SubPlanQuery::project_all) {
            let each: Vec<u64> = subs.iter().map(|sub| est.estimate(db, sub).to_bits()).collect();
            let batched: Vec<u64> = est.estimate_batch(db, &subs).into_iter().map(f64::to_bits).collect();
            prop_assert_eq!(batched, each);
        }
    }

    /// The one-pass enumerator agrees bit-for-bit with per-mask exact
    /// execution on random acyclic STATS queries, and the bulk service
    /// API returns the same values.
    #[test]
    fn one_pass_enumeration_bit_identical_to_per_mask(seed in 0u64..1000) {
        let db = &bench().stats_db;
        let truth = TrueCardService::new();
        for q in random_queries(seed) {
            let masks = connected_subsets(&q);
            let one_pass = subplan_true_cards(db, &q).expect("enumeration succeeds");
            let bulk = truth.cardinalities_for_query(db, &q).expect("bulk service succeeds");
            assert_eq!(one_pass.len(), masks.len());
            assert_eq!(bulk.len(), masks.len());
            for ((&mask, &(m1, c1)), &(m2, c2)) in masks.iter().zip(&one_pass).zip(&bulk) {
                assert_eq!(mask, m1);
                assert_eq!(mask, m2);
                let sub = SubPlanQuery::project(&q, mask);
                let exact = exact_cardinality(db, &sub.query).expect("exact succeeds");
                assert_eq!(exact.to_bits(), c1.to_bits(), "mask {mask:?}: exact {exact} vs {c1}");
                assert_eq!(exact.to_bits(), c2.to_bits());
            }
        }
    }
}
