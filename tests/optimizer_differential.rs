//! Differential property tests of the two-phase plan search: on random
//! acyclic 2–8-table queries, the dense topology-driven DP
//! (`optimize_topo`, reached through `optimize_with`) must produce a
//! `PhysicalPlan` and cost **bit-identical** to the retained reference
//! `HashMap` DP (`optimize_reference`) — under exact cardinalities,
//! ChaosEst-corrupted ones (every value-fault class), and partially
//! missing CardMaps — in both bushy and left-deep modes. A structural
//! property additionally checks every reconstructed plan covers each
//! table exactly once and every join node's mask is the union of its
//! children's.

use cardbench_engine::{
    exact_cardinality, optimize_reference, optimize_with, plan_cost, CardMap, CostModel, Database,
    PhysicalPlan,
};
use cardbench_estimators::chaos::{ChaosConfig, ChaosEst, FaultClass};
use cardbench_estimators::CardEst;
use cardbench_query::{
    connected_subsets, BoundQuery, JoinEdge, JoinQuery, Predicate, Region, SubPlanQuery, TableMask,
};
use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};
use cardbench_support::proptest::prelude::*;
use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};

/// Random database: each table has two joinable key columns (small
/// domain for duplicate-heavy joins, ~1/8 NULLs) and a value column.
fn random_db(rng: &mut StdRng, n_tables: usize) -> Database {
    let mut cat = Catalog::new();
    for i in 0..n_tables {
        let rows = rng.gen_range(1..30usize);
        let key_col = |rng: &mut StdRng| {
            Column::from_datums((0..rows).map(|_| {
                if rng.gen_range(0..8u32) == 0 {
                    None
                } else {
                    Some(rng.gen_range(0..6i64))
                }
            }))
        };
        cat.add_table(
            Table::from_columns(
                TableSchema::new(
                    format!("t{i}"),
                    vec![
                        ColumnDef::new("k0", ColumnKind::ForeignKey),
                        ColumnDef::new("k1", ColumnKind::ForeignKey),
                        ColumnDef::new("v", ColumnKind::Numeric),
                    ],
                ),
                vec![
                    key_col(rng),
                    key_col(rng),
                    Column::from_values((0..rows as i64).collect()),
                ],
            )
            .unwrap(),
        );
    }
    Database::new(cat)
}

/// Random acyclic (tree-shaped) query: table `t` joins some earlier
/// table on randomly chosen key columns, with an occasional filter.
fn random_tree_query(rng: &mut StdRng, n_tables: usize) -> JoinQuery {
    let key = |rng: &mut StdRng| {
        if rng.gen_range(0..2u32) == 0 {
            "k0"
        } else {
            "k1"
        }
    };
    let joins = (1..n_tables)
        .map(|t| {
            let parent = rng.gen_range(0..t);
            JoinEdge::new(parent, key(rng), t, key(rng))
        })
        .collect();
    let mut predicates = Vec::new();
    for t in 0..n_tables {
        if rng.gen_range(0..3u32) == 0 {
            predicates.push(Predicate::new(t, "v", Region::le(rng.gen_range(0..20i64))));
        }
    }
    JoinQuery {
        tables: (0..n_tables).map(|i| format!("t{i}")).collect(),
        joins,
        predicates,
    }
}

/// Exact cardinalities for every connected sub-plan.
fn exact_cards(db: &Database, q: &JoinQuery) -> CardMap {
    let mut m = CardMap::new();
    for mask in connected_subsets(q) {
        let sp = SubPlanQuery::project(q, mask);
        m.insert(mask, exact_cardinality(db, &sp.query).unwrap());
    }
    m
}

/// Asserts dense and reference DPs agree bit-for-bit on `cards`, and
/// that the dense plan's own cost equals re-costing it under `cards`.
fn assert_bit_identical(db: &Database, q: &JoinQuery, cards: &CardMap) {
    let bound = BoundQuery::bind(q, db.catalog()).unwrap();
    let cm = CostModel::default();
    for left_deep in [false, true] {
        let dense_plan = optimize_with(q, &bound, db, cards, &cm, left_deep);
        let (ref_cost, ref_plan) = optimize_reference(q, &bound, db, cards, &cm, left_deep);
        assert!(
            dense_plan.structurally_identical(&ref_plan),
            "left_deep={left_deep}: dense and reference plans diverged\n\
             dense: {dense_plan:?}\nref:   {ref_plan:?}"
        );
        let recosted = plan_cost(&dense_plan, db, &bound, &cm, &|m| cards.rows(m));
        assert_eq!(
            recosted.to_bits(),
            ref_cost.to_bits(),
            "left_deep={left_deep}: dense plan cost diverged from reference"
        );
        assert_structurally_sound(&dense_plan, q.table_count());
    }
}

/// Structural soundness: the plan covers every table exactly once and
/// each join node's mask is the disjoint union of its children's.
fn assert_structurally_sound(plan: &PhysicalPlan, n_tables: usize) {
    fn check(p: &PhysicalPlan) -> TableMask {
        match p {
            PhysicalPlan::Scan {
                table_pos, mask, ..
            } => {
                assert_eq!(
                    *mask,
                    TableMask::single(*table_pos),
                    "scan mask must be its table's singleton"
                );
                *mask
            }
            PhysicalPlan::Join {
                left, right, mask, ..
            } => {
                let lm = check(left);
                let rm = check(right);
                assert!(lm.disjoint(rm), "join children overlap: {lm:?} vs {rm:?}");
                assert_eq!(lm.union(rm), *mask, "join mask must union its children");
                *mask
            }
        }
    }
    let covered = check(plan);
    assert_eq!(
        covered,
        TableMask::full(n_tables),
        "plan must cover every table exactly once"
    );
    assert_eq!(plan.join_count(), n_tables - 1);
}

/// An estimator with no model: answers the sub-plan's cross-product of
/// table positions, deterministic and cheap — the clean inner for chaos
/// wrapping.
struct Synthetic;

impl CardEst for Synthetic {
    fn name(&self) -> &'static str {
        "Synthetic"
    }
    fn estimate(&self, _db: &Database, sub: &SubPlanQuery) -> f64 {
        (sub.mask.0 as f64 + 1.0) * 3.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Exact cardinalities: dense DP ≡ reference DP, bushy and left-deep.
    #[test]
    fn dense_matches_reference_exact(seed in any::<u64>(), n_tables in 2usize..9) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_db(&mut rng, n_tables);
        let q = random_tree_query(&mut rng, n_tables);
        let cards = exact_cards(&db, &q);
        assert_bit_identical(&db, &q, &cards);
    }

    /// ChaosEst-corrupted cardinalities (all value-fault classes at a
    /// high rate, sanitized through the same `insert_bounded` clamp the
    /// harness uses): both DPs still agree bit-for-bit.
    #[test]
    fn dense_matches_reference_chaos(seed in any::<u64>(), n_tables in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_db(&mut rng, n_tables);
        let q = random_tree_query(&mut rng, n_tables);
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let chaos = ChaosEst::new(
            Box::new(Synthetic),
            ChaosConfig {
                seed,
                rate: 0.5,
                classes: FaultClass::VALUES.to_vec(),
                ..ChaosConfig::default()
            },
        );
        let mut cards = CardMap::new();
        for mask in connected_subsets(&q) {
            let sp = SubPlanQuery::project(&q, mask);
            let upper: f64 = mask
                .iter()
                .map(|pos| db.row_count(bound.tables[pos].id) as f64)
                .product();
            cards.insert_bounded(mask, chaos.estimate(&db, &sp), upper);
        }
        assert_bit_identical(&db, &q, &cards);
    }

    /// Partially missing CardMaps (every sub-plan estimate dropped with
    /// probability 1/2, falling back to the 1.0 default): both DPs agree.
    #[test]
    fn dense_matches_reference_missing(seed in any::<u64>(), n_tables in 2usize..8) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_db(&mut rng, n_tables);
        let q = random_tree_query(&mut rng, n_tables);
        let mut cards = CardMap::new();
        for mask in connected_subsets(&q) {
            if rng.gen_range(0..2u32) == 0 {
                cards.insert(mask, rng.gen_range(1..10_000u32) as f64);
            }
        }
        assert_bit_identical(&db, &q, &cards);
    }
}

/// One deterministic 8-table case so the n=8 regime is always exercised
/// even under proptest's randomized sizes.
#[test]
fn dense_matches_reference_eight_tables() {
    let mut rng = StdRng::seed_from_u64(0xCA4D);
    let db = random_db(&mut rng, 8);
    let q = random_tree_query(&mut rng, 8);
    let cards = exact_cards(&db, &q);
    assert_bit_identical(&db, &q, &cards);
}
