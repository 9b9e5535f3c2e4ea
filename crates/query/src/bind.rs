//! Binding: resolving a [`JoinQuery`]'s names against a catalog into dense
//! ids so the engine and estimators never do string lookups on hot paths.

use cardbench_storage::{Catalog, StorageError, TableId};

use crate::join::JoinQuery;
use crate::predicate::Region;

/// A predicate with its column resolved to an index.
#[derive(Debug, Clone)]
pub struct BoundPredicate {
    /// Column index within the table.
    pub column: usize,
    /// Constraint region.
    pub region: Region,
}

/// One table of a bound query with its resolved id and local predicates.
#[derive(Debug, Clone)]
pub struct BoundTable {
    /// Catalog id.
    pub id: TableId,
    /// Predicates on this table.
    pub predicates: Vec<BoundPredicate>,
}

/// A join edge with resolved column indices.
#[derive(Debug, Clone, Copy)]
pub struct BoundJoin {
    /// Left table position within the query.
    pub left: usize,
    /// Column index on the left table.
    pub left_col: usize,
    /// Right table position.
    pub right: usize,
    /// Column index on the right table.
    pub right_col: usize,
}

/// A fully resolved query.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    /// Tables in query order.
    pub tables: Vec<BoundTable>,
    /// Resolved join edges.
    pub joins: Vec<BoundJoin>,
}

impl BoundQuery {
    /// Resolves `query` against `catalog`.
    pub fn bind(query: &JoinQuery, catalog: &Catalog) -> Result<BoundQuery, StorageError> {
        let mut tables = Vec::with_capacity(query.tables.len());
        for (pos, name) in query.tables.iter().enumerate() {
            let id = catalog.table_id(name)?;
            let schema = catalog.table(id).schema();
            let mut predicates = Vec::new();
            for p in query.predicates_of(pos) {
                let column =
                    schema
                        .column_index(&p.column)
                        .ok_or_else(|| StorageError::UnknownColumn {
                            table: name.clone(),
                            column: p.column.clone(),
                        })?;
                predicates.push(BoundPredicate {
                    column,
                    region: p.region.clone(),
                });
            }
            tables.push(BoundTable { id, predicates });
        }
        let mut joins = Vec::with_capacity(query.joins.len());
        for e in &query.joins {
            let resolve = |pos: usize, col: &str| -> Result<usize, StorageError> {
                let schema = catalog.table(tables[pos].id).schema();
                schema
                    .column_index(col)
                    .ok_or_else(|| StorageError::UnknownColumn {
                        table: query.tables[pos].clone(),
                        column: col.to_string(),
                    })
            };
            joins.push(BoundJoin {
                left: e.left,
                left_col: resolve(e.left, &e.left_col)?,
                right: e.right,
                right_col: resolve(e.right, &e.right_col)?,
            });
        }
        Ok(BoundQuery { tables, joins })
    }
}

/// The names of one query resolved into buffers a caller keeps: the
/// front end of batched inference, which binds every sub-plan of a batch
/// and may not allocate doing so. It holds ids only — the regions stay
/// in the [`JoinQuery`] it was resolved from, entry `i` of `pred_cols`
/// belonging to `query.predicates[i]` — and a name the catalog does not
/// know is `None`, not an error, so that callers which read partially
/// resolved queries (query featurization) and callers which give up on
/// them (fanout estimation) share one resolution.
#[derive(Debug, Clone, Default)]
pub struct ResolvedNames {
    /// Catalog id per table position.
    pub tables: Vec<Option<TableId>>,
    /// Column index of each predicate, in `query.predicates` order;
    /// `None` also when the predicate's table is unknown.
    pub pred_cols: Vec<Option<usize>>,
    /// Each join edge with both columns resolved, in `query.joins`
    /// order; `None` when a side's table or column is unknown.
    pub joins: Vec<Option<BoundJoin>>,
}

impl ResolvedNames {
    /// Resolves `query` against `catalog`, replacing what `self` held.
    /// Returns whether every name resolved — exactly when
    /// [`BoundQuery::bind`] succeeds on a query whose predicates all
    /// name a table position the query has.
    pub fn resolve(&mut self, query: &JoinQuery, catalog: &Catalog) -> bool {
        self.tables.clear();
        self.tables
            .extend(query.tables.iter().map(|name| catalog.table_id(name).ok()));
        let tables = &self.tables;
        let column = |pos: usize, col: &str| -> Option<usize> {
            let id = (*tables.get(pos)?)?;
            catalog.table(id).schema().column_index(col)
        };
        self.pred_cols.clear();
        self.pred_cols
            .extend(query.predicates.iter().map(|p| column(p.table, &p.column)));
        self.joins.clear();
        self.joins.extend(query.joins.iter().map(|e| {
            Some(BoundJoin {
                left: e.left,
                left_col: column(e.left, &e.left_col)?,
                right: e.right,
                right_col: column(e.right, &e.right_col)?,
            })
        }));
        self.tables.iter().all(Option::is_some)
            && self.pred_cols.iter().all(Option::is_some)
            && self.joins.iter().all(Option::is_some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::JoinEdge;
    use crate::predicate::Predicate;
    use cardbench_storage::{Column, ColumnDef, ColumnKind, Table, TableSchema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let a = Table::from_columns(
            TableSchema::new(
                "a",
                vec![
                    ColumnDef::new("id", ColumnKind::PrimaryKey),
                    ColumnDef::new("x", ColumnKind::Numeric),
                ],
            ),
            vec![
                Column::from_values(vec![1, 2]),
                Column::from_values(vec![10, 20]),
            ],
        )
        .unwrap();
        let b = Table::from_columns(
            TableSchema::new(
                "b",
                vec![
                    ColumnDef::new("id", ColumnKind::PrimaryKey),
                    ColumnDef::new("aid", ColumnKind::ForeignKey),
                ],
            ),
            vec![Column::from_values(vec![1]), Column::from_values(vec![2])],
        )
        .unwrap();
        c.add_table(a);
        c.add_table(b);
        c
    }

    #[test]
    fn bind_resolves_indices() {
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![Predicate::new(0, "x", Region::ge(15))],
        };
        let bq = BoundQuery::bind(&q, &catalog()).unwrap();
        assert_eq!(bq.tables.len(), 2);
        assert_eq!(bq.tables[0].predicates[0].column, 1);
        assert_eq!(bq.joins[0].left_col, 0);
        assert_eq!(bq.joins[0].right_col, 1);
    }

    #[test]
    fn bind_rejects_unknown_column() {
        let q = JoinQuery::single("a", vec![Predicate::new(0, "nope", Region::eq(1))]);
        assert!(BoundQuery::bind(&q, &catalog()).is_err());
    }

    #[test]
    fn resolved_names_agree_with_bind() {
        let cat = catalog();
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![
                Predicate::new(1, "aid", Region::eq(2)),
                Predicate::new(0, "x", Region::ge(15)),
            ],
        };
        let bq = BoundQuery::bind(&q, &cat).unwrap();
        let mut names = ResolvedNames::default();
        assert!(names.resolve(&q, &cat));
        assert_eq!(
            names.tables,
            vec![Some(bq.tables[0].id), Some(bq.tables[1].id)]
        );
        assert_eq!(names.pred_cols, vec![Some(1), Some(1)]);
        let j = names.joins[0].unwrap();
        assert_eq!((j.left_col, j.right_col), (0, 1));

        // Unknown names resolve to `None` around the ones that are
        // known, and the buffers are reused, not appended to.
        let partial = JoinQuery {
            tables: vec!["a".into(), "ghost".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![
                Predicate::new(0, "nope", Region::eq(1)),
                Predicate::new(0, "x", Region::eq(1)),
                Predicate::new(1, "aid", Region::eq(1)),
                Predicate::new(7, "x", Region::eq(1)),
            ],
        };
        assert!(!names.resolve(&partial, &cat));
        assert!(BoundQuery::bind(&partial, &cat).is_err());
        assert_eq!(names.tables, vec![Some(bq.tables[0].id), None]);
        assert_eq!(names.pred_cols, vec![None, Some(1), None, None]);
        assert!(names.joins[0].is_none());
    }

    #[test]
    fn bind_rejects_unknown_table() {
        let q = JoinQuery::single("ghost", vec![]);
        assert!(BoundQuery::bind(&q, &catalog()).is_err());
    }
}
