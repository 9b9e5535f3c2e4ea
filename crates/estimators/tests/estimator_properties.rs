//! Property tests over estimator-facing infrastructure: coders, weights,
//! and the fanout framework, on randomized small databases.

use cardbench_support::proptest::prelude::*;

use cardbench_engine::{exact_cardinality, Database};
use cardbench_estimators::common::{region_weights, TableCoder};
use cardbench_estimators::fanout::exact_fanout_estimator;
use cardbench_query::{JoinEdge, JoinQuery, Predicate, Region, SubPlanQuery, TableMask};
use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableId, TableSchema};

fn two_table_db(keys_a: &[i64], vals_a: &[i64], keys_b: &[i64], vals_b: &[i64]) -> Database {
    let mut cat = Catalog::new();
    cat.add_table(
        Table::from_columns(
            TableSchema::new(
                "a",
                vec![
                    ColumnDef::new("id", ColumnKind::ForeignKey),
                    ColumnDef::new("x", ColumnKind::Numeric),
                ],
            ),
            vec![
                Column::from_values(keys_a.to_vec()),
                Column::from_values(vals_a.to_vec()),
            ],
        )
        .unwrap(),
    );
    cat.add_table(
        Table::from_columns(
            TableSchema::new(
                "b",
                vec![
                    ColumnDef::new("aid", ColumnKind::ForeignKey),
                    ColumnDef::new("y", ColumnKind::Numeric),
                ],
            ),
            vec![
                Column::from_values(keys_b.to_vec()),
                Column::from_values(vals_b.to_vec()),
            ],
        )
        .unwrap(),
    );
    cat.add_join(cardbench_storage::JoinRelation::new(
        "a",
        "id",
        "b",
        "aid",
        cardbench_storage::JoinKind::PkFk,
    ))
    .unwrap();
    Database::new(cat)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The exact-model fanout estimator with lossless bins reproduces
    /// true cardinalities exactly when only root-side filters apply
    /// (fanout × filter correlation is captured within the table).
    #[test]
    fn exact_fanout_estimator_exact_for_root_filters(
        keys_a in prop::collection::vec(0i64..8, 2..20),
        vals_a in prop::collection::vec(0i64..5, 20),
        keys_b in prop::collection::vec(0i64..8, 1..30),
        vals_b in prop::collection::vec(0i64..5, 30),
        hi in 0i64..5,
    ) {
        let va = &vals_a[..keys_a.len()];
        let vb = &vals_b[..keys_b.len()];
        let db = two_table_db(&keys_a, va, &keys_b, vb);
        let est = exact_fanout_estimator(&db, 64);
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![Predicate::new(0, "x", Region::le(hi))],
        };
        let truth = exact_cardinality(&db, &q).unwrap();
        let sub = SubPlanQuery { mask: TableMask::full(2), query: q };
        let e = est.estimate(&db, &sub);
        prop_assert!((e - truth).abs() < 1e-6, "est {e} truth {truth}");
    }

    /// Coder filter weights are coverages in [0,1] and the NULL bin never
    /// matches.
    #[test]
    fn filter_weights_are_coverages(
        keys_a in prop::collection::vec(0i64..8, 2..20),
        vals_a in prop::collection::vec(-50i64..50, 20),
        lo in -60i64..60,
        width in 0i64..40,
    ) {
        let va = &vals_a[..keys_a.len()];
        let db = two_table_db(&keys_a, va, &[0], &[0]);
        let coder = TableCoder::fit(&db, TableId(0), 8, true);
        let mc = coder.attr_column(1).unwrap();
        let mut w = Vec::new();
        region_weights(&coder.discretizers[mc], &Region::between(lo, lo + width), &mut w);
        prop_assert!(w.iter().all(|&x| (0.0..=1.0).contains(&x)));
        prop_assert_eq!(w[w.len() - 1], 0.0); // NULL bin
    }

    /// Binned fanout expectations reproduce the exact join size for
    /// unfiltered joins whenever bins are lossless.
    #[test]
    fn fanout_expectation_matches_join_size(
        keys_a in prop::collection::vec(0i64..6, 2..16),
        keys_b in prop::collection::vec(0i64..6, 1..24),
    ) {
        let va = vec![0i64; keys_a.len()];
        let vb = vec![0i64; keys_b.len()];
        let db = two_table_db(&keys_a, &va, &keys_b, &vb);
        let est = exact_fanout_estimator(&db, 64);
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![],
        };
        let truth = exact_cardinality(&db, &q).unwrap();
        let sub = SubPlanQuery { mask: TableMask::full(2), query: q };
        prop_assert!((est.estimate(&db, &sub) - truth).abs() < 1e-6);
    }
}
