//! PessEst: pessimistic cardinality estimation (Cai, Balazinska, Suciu) —
//! an upper bound that never underestimates.
//!
//! Bound: rooted anywhere in the join tree,
//! `card ≤ count(σ T_root) · Π_{edges} maxdeg(child join column)`,
//! since every row expands by at most the maximum key multiplicity at
//! each join step and filters only shrink. We take the minimum over all
//! roots (the tightening step that stands in for the paper's hash
//! partitioning). Single-table counts are exact (index-assisted), playing
//! the role of the method's count sketches.

use cardbench_engine::{exact_cardinality, Database};
use cardbench_query::{BoundQuery, JoinQuery, SubPlanQuery};
use cardbench_support::memo::Memo;

use crate::CardEst;

/// The pessimistic estimator.
pub struct PessEst {
    /// `max_degree[table][column]`: maximum multiplicity of any value.
    max_degree: Vec<Vec<f64>>,
    /// Cache of exact *unfiltered* template join sizes — themselves upper
    /// bounds (filters only shrink), the sketch-tightening stand-in.
    /// Interior-mutable so `estimate(&self)` can fill it from any thread;
    /// keyed by the template's canonical hash.
    template_cache: Memo<f64>,
}

impl PessEst {
    /// Precomputes maximum degrees of every column.
    pub fn fit(db: &Database) -> PessEst {
        let mut max_degree = Vec::with_capacity(db.catalog().table_count());
        for t in 0..db.catalog().table_count() {
            let table = db.catalog().table(cardbench_storage::TableId(t));
            let per_col = (0..table.column_count())
                .map(|c| {
                    let entries = db.index(cardbench_storage::TableId(t), c).entries();
                    let mut best = 0usize;
                    let mut run = 0usize;
                    let mut prev: Option<i64> = None;
                    for &(v, _) in entries {
                        if prev == Some(v) {
                            run += 1;
                        } else {
                            run = 1;
                            prev = Some(v);
                        }
                        best = best.max(run);
                    }
                    best.max(1) as f64
                })
                .collect();
            max_degree.push(per_col);
        }
        PessEst {
            max_degree,
            template_cache: Memo::default(),
        }
    }

    /// Exact unfiltered join size of the query's template (cached).
    fn template_bound(&self, db: &Database, query: &JoinQuery) -> f64 {
        let mut template = query.clone();
        template.predicates.clear();
        self.template_cache
            .get_or_insert_with(template.canonical_hash(), || {
                exact_cardinality(db, &template).unwrap_or(f64::INFINITY)
            })
    }

    fn bound_from_root(
        &self,
        db: &Database,
        bound: &BoundQuery,
        root: usize,
        counts: &[f64],
    ) -> f64 {
        let n = bound.tables.len();
        let mut seen = vec![false; n];
        seen[root] = true;
        let mut stack = vec![root];
        let mut b = counts[root];
        while let Some(t) = stack.pop() {
            for e in &bound.joins {
                let (other, other_col) = if e.left == t {
                    (e.right, e.right_col)
                } else if e.right == t {
                    (e.left, e.left_col)
                } else {
                    continue;
                };
                if !seen[other] {
                    seen[other] = true;
                    stack.push(other);
                    b *= self.max_degree[bound.tables[other].id.0][other_col];
                }
            }
        }
        let _ = db;
        b
    }
}

impl CardEst for PessEst {
    fn name(&self) -> &'static str {
        "PessEst"
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        let Ok(bound) = BoundQuery::bind(&sub.query, db.catalog()) else {
            return 1.0;
        };
        // Exact filtered counts per table (the sketch stand-in).
        let counts: Vec<f64> = bound
            .tables
            .iter()
            .map(|bt| db.filtered_rows(bt.id, &bt.predicates).len() as f64)
            .collect();
        let degree_bound = (0..bound.tables.len())
            .map(|r| self.bound_from_root(db, &bound, r, &counts))
            .fold(f64::INFINITY, f64::min);
        // Tighten with the unfiltered template size (also an upper
        // bound); mirrors the sketch-partition tightening of the paper's
        // method.
        degree_bound.min(self.template_bound(db, &sub.query))
    }

    fn model_size_bytes(&self) -> usize {
        self.max_degree.iter().map(|v| v.len() * 8).sum()
    }

    fn apply_inserts(&mut self, db: &Database, _delta: &[cardbench_storage::Table]) {
        *self = PessEst::fit(db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_engine::exact_cardinality;
    use cardbench_query::{JoinEdge, JoinQuery, Predicate, Region, TableMask};
    use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

    fn db() -> Database {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::from_columns(
                TableSchema::new(
                    "a",
                    vec![
                        ColumnDef::new("id", ColumnKind::PrimaryKey),
                        ColumnDef::new("x", ColumnKind::Numeric),
                    ],
                ),
                vec![
                    Column::from_values((0..30).collect()),
                    Column::from_values((0..30).map(|i| i % 3).collect()),
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
                    // Skewed: key 0 appears 20×.
                    Column::from_values((0..60).map(|i| if i < 20 { 0 } else { i % 30 }).collect()),
                    Column::from_values((0..60).map(|i| i % 2).collect()),
                ],
            )
            .unwrap(),
        );
        Database::new(cat)
    }

    fn q() -> JoinQuery {
        JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![Predicate::new(1, "y", Region::eq(0))],
        }
    }

    #[test]
    fn never_underestimates() {
        let db = db();
        let query = q();
        let exact = exact_cardinality(&db, &query).unwrap();
        let est = PessEst::fit(&db);
        let sub = SubPlanQuery {
            mask: TableMask::full(2),
            query,
        };
        let e = est.estimate(&db, &sub);
        assert!(e >= exact, "pess {e} < exact {exact}");
    }

    #[test]
    fn single_table_exact() {
        let db = db();
        let est = PessEst::fit(&db);
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: JoinQuery::single("a", vec![Predicate::new(0, "x", Region::eq(1))]),
        };
        assert_eq!(est.estimate(&db, &sub), 10.0);
    }

    #[test]
    fn min_over_roots_tightens() {
        let db = db();
        let query = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![],
        };
        let est = PessEst::fit(&db);
        // Root at a: 30 × maxdeg(b.aid)=20 → 600.
        // Root at b: 60 × maxdeg(a.id)=1 → 60. Min = 60.
        let sub = SubPlanQuery {
            mask: TableMask::full(2),
            query: query.clone(),
        };
        let e = est.estimate(&db, &sub);
        assert_eq!(e, 60.0);
        assert!(e >= exact_cardinality(&db, &query).unwrap());
    }
}
