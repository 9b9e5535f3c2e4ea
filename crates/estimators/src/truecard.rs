//! TrueCard: the oracle baseline injecting exact cardinalities.

use cardbench_engine::{Database, TrueCardService};
use cardbench_query::SubPlanQuery;

use crate::CardEst;

/// Oracle estimator backed by the engine's exact-count service.
#[derive(Default)]
pub struct TrueCardEst {
    service: TrueCardService,
}

impl TrueCardEst {
    /// Creates the oracle (no training).
    pub fn new() -> TrueCardEst {
        TrueCardEst::default()
    }
}

impl CardEst for TrueCardEst {
    fn name(&self) -> &'static str {
        "TrueCard"
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.service.cardinality(db, &sub.query).unwrap_or(0.0)
    }

    /// Routes through the engine's one-pass enumerator: the widest
    /// sub-plans seed the service cache with exact counts for *all* of
    /// their connected subsets in a single bottom-up traversal, so the
    /// narrower sub-plans below resolve as cache hits instead of
    /// independent join executions. The one-pass counts are bit-identical
    /// to per-mask [`cardbench_engine::exact_cardinality`].
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..subs.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(subs[i].query.table_count()));
        for &i in &order {
            if subs[i].query.table_count() > 1 {
                // Errors fall through to the per-sub path below, which
                // degrades exactly like the sequential estimate.
                let _ = self.service.cardinalities_for_query(db, &subs[i].query);
            }
        }
        subs.iter()
            .map(|s| self.service.cardinality(db, &s.query).unwrap_or(0.0))
            .collect()
    }

    fn batch_leverage(&self) -> bool {
        true
    }

    fn is_oracle(&self) -> bool {
        true
    }

    fn apply_inserts(&mut self, _db: &Database, _delta: &[cardbench_storage::Table]) {
        // The oracle recomputes from live data; just drop the cache.
        self.service = TrueCardService::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_query::{JoinQuery, Predicate, Region, TableMask};
    use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

    #[test]
    fn oracle_matches_data() {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_columns(
                TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("id", ColumnKind::PrimaryKey),
                        ColumnDef::new("v", ColumnKind::Numeric),
                    ],
                ),
                vec![
                    Column::from_values((0..100).collect()),
                    Column::from_values((0..100).map(|i| i % 4).collect()),
                ],
            )
            .unwrap(),
        );
        let db = Database::new(cat);
        let est = TrueCardEst::new();
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: JoinQuery::single("t", vec![Predicate::new(0, "v", Region::eq(2))]),
        };
        assert_eq!(est.estimate(&db, &sub), 25.0);
    }
}
