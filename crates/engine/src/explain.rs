//! EXPLAIN-style plan rendering with per-node cost and row annotations,
//! in the spirit of PostgreSQL's `EXPLAIN (COSTS)` output.

use cardbench_query::BoundQuery;

use crate::cost::CostModel;
use crate::database::Database;
use crate::optimizer::{plan_cost, CardMap};
use crate::plan::PhysicalPlan;

/// Renders a plan with estimated rows and cumulative cost per node (the
/// subtree's [`plan_cost`] under `cards`):
///
/// ```text
/// HashJoin  (rows=4352 cost=312.4)
///   SeqScan posts  (rows=1840 cost=55.2)
///   IndexScan users  (rows=19 cost=1.1)
/// ```
pub fn explain(
    plan: &PhysicalPlan,
    db: &Database,
    bound: &BoundQuery,
    tables: &[String],
    cost: &CostModel,
    cards: &CardMap,
) -> String {
    let rows = |m| cards.rows(m);
    plan.render(tables, &|node| {
        let c = plan_cost(node, db, bound, cost, &rows);
        format!(" (rows={:.0} cost={c:.1})", rows(node.mask()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::optimize;
    use cardbench_query::{connected_subsets, JoinEdge, JoinQuery, SubPlanQuery};
    use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

    #[test]
    fn explain_annotates_rows_and_costs() {
        let mut cat = Catalog::new();
        for name in ["a", "b"] {
            cat.add_table(
                Table::from_columns(
                    TableSchema::new(name, vec![ColumnDef::new("k", ColumnKind::ForeignKey)]),
                    vec![Column::from_values((0..100).map(|i| i % 10).collect())],
                )
                .unwrap(),
            );
        }
        let db = Database::new(cat);
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "k", 1, "k")],
            predicates: vec![],
        };
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let mut cards = CardMap::new();
        for mask in connected_subsets(&q) {
            let sp = SubPlanQuery::project(&q, mask);
            let _ = sp;
            cards.insert(mask, 100.0);
        }
        let cm = CostModel::default();
        let plan = optimize(&q, &bound, &db, &cards, &cm);
        let s = explain(&plan, &db, &bound, &q.tables, &cm, &cards);
        assert!(s.contains("Join"), "{s}");
        assert!(s.contains("rows=100"), "{s}");
        assert!(s.contains("cost="), "{s}");
        // Root line comes first and carries the largest cost.
        let first = s.lines().next().unwrap();
        assert!(first.contains("Join"));
    }
}
