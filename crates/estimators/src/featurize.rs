//! Query featurization for the query-driven estimators.
//!
//! A fixed-width vector per query over the whole schema: table one-hots,
//! join-relation one-hots, and per filterable attribute a
//! `(present, lo, hi)` triple with bounds normalized into the attribute's
//! observed value range. An IN-list is encoded by its hull: the same
//! three slots, `lo` and `hi` from its smallest and largest value. This
//! is the featurization MSCN/LW-XGB/LW-NN share.
//!
//! A row is written sparse — `(slot, value)` by ascending slot, zeros
//! left out — because that is what the models read: a query touches a
//! dozen of the ~90 slots and every kernel skips a zero input.

use cardbench_engine::Database;
use cardbench_ml::{Matrix, SparseRows};
use cardbench_query::{JoinQuery, Region, ResolvedNames};
use cardbench_storage::TableId;

/// Schema-wide featurizer.
#[derive(Debug, Clone)]
pub struct Featurizer {
    n_tables: usize,
    /// The schema's join relations by the table of their canonical
    /// first side (the lexicographically smaller `(table, col)`):
    /// `(col, other table, other col, join slot)`, a handful per table.
    edges_of: Vec<Vec<(usize, usize, usize, usize)>>,
    n_edges: usize,
    /// All filterable attributes: `(min, max)` by attr slot.
    attrs: Vec<(f64, f64)>,
    /// `[table][column]` → attr slot.
    attr_slot: Vec<Vec<Option<usize>>>,
}

/// Reusable buffers of [`Featurizer::push_row`]: the query's resolved
/// names, and the row being written as a dense value per slot plus a
/// bitmap of the slots written — read back in slot order, so nothing
/// is sorted and nothing but the written slots is read.
#[derive(Debug, Default)]
pub struct FeatureScratch {
    names: ResolvedNames,
    vals: Vec<f32>,
    written: Vec<u64>,
}

impl Featurizer {
    /// Builds the featurizer from the schema and column statistics.
    pub fn fit(db: &Database) -> Featurizer {
        let n_tables = db.catalog().table_count();
        let mut edges_of = vec![Vec::new(); n_tables];
        let n_edges = db.catalog().joins().len();
        for (slot, j) in db.catalog().joins().iter().enumerate() {
            let lt = db.catalog().table_id(&j.left_table).expect("table");
            let rt = db.catalog().table_id(&j.right_table).expect("table");
            let col = |t: TableId, name: &str| {
                let schema = db.catalog().table(t).schema();
                schema.column_index(name).expect("col")
            };
            let (t, c, ot, oc) = canonical_edge(
                lt.0,
                col(lt, &j.left_column),
                rt.0,
                col(rt, &j.right_column),
            );
            edges_of[t].push((c, ot, oc, slot));
        }
        let mut attrs = Vec::new();
        let mut attr_slot = Vec::with_capacity(n_tables);
        for t in 0..n_tables {
            let table = db.catalog().table(TableId(t));
            let mut slots = vec![None; table.column_count()];
            for c in table.schema().filterable_columns() {
                let s = db.stats(TableId(t), c);
                slots[c] = Some(attrs.len());
                attrs.push((s.min as f64, s.max as f64));
            }
            attr_slot.push(slots);
        }
        Featurizer {
            n_tables,
            edges_of,
            n_edges,
            attrs,
            attr_slot,
        }
    }

    /// Feature-vector width.
    pub fn dim(&self) -> usize {
        self.n_tables + self.n_edges + 3 * self.attrs.len()
    }

    /// Widths of the three segments `(tables, joins, predicates)` —
    /// MSCN's modules consume them separately.
    pub fn segments(&self) -> (usize, usize, usize) {
        (self.n_tables, self.n_edges, 3 * self.attrs.len())
    }

    /// Featurizes `query` as the next row of `rows`. Unknown tables and
    /// attributes are ignored (zeros); of two predicates on one
    /// attribute the later one is kept.
    pub fn push_row(
        &self,
        db: &Database,
        query: &JoinQuery,
        scratch: &mut FeatureScratch,
        rows: &mut SparseRows,
    ) {
        let FeatureScratch {
            names,
            vals,
            written,
        } = scratch;
        names.resolve(query, db.catalog());
        vals.resize(self.dim(), 0.0);
        written.clear();
        written.resize(self.dim().div_ceil(64), 0);
        let mut set = |slot: usize, v: f32| {
            vals[slot] = v;
            written[slot / 64] |= 1 << (slot % 64);
        };
        // Table one-hots.
        for t in names.tables.iter().flatten() {
            set(t.0, 1.0);
        }
        // Join one-hots.
        for e in names.joins.iter().flatten() {
            let (Some(lt), Some(rt)) = (names.tables[e.left], names.tables[e.right]) else {
                continue;
            };
            let (t, c, ot, oc) = canonical_edge(lt.0, e.left_col, rt.0, e.right_col);
            // Of equal relations the first declared.
            if let Some(&(.., slot)) = self.edges_of[t]
                .iter()
                .find(|&&(ec, eot, eoc, _)| (ec, eot, eoc) == (c, ot, oc))
            {
                set(self.n_tables + slot, 1.0);
            }
        }
        // Predicates.
        let base = self.n_tables + self.n_edges;
        for (p, col) in query.predicates.iter().zip(&names.pred_cols) {
            let (Some(Some(t)), Some(c)) = (names.tables.get(p.table), *col) else {
                continue;
            };
            let Some(slot) = self.attr_slot[t.0][c] else {
                continue;
            };
            let (min, max) = self.attrs[slot];
            let span = (max - min).max(1.0);
            let norm = |v: f64| (((v - min) / span).clamp(0.0, 1.0)) as f32;
            let (lo, hi) = match &p.region {
                Region::Range { lo, hi } => (*lo as f64, *hi as f64),
                Region::In(vals) => (
                    vals.first().copied().unwrap_or(0) as f64,
                    vals.last().copied().unwrap_or(0) as f64,
                ),
            };
            let o = base + 3 * slot;
            set(o, 1.0);
            set(o + 1, norm(lo));
            set(o + 2, norm(hi));
        }
        for (word, &bits) in written.iter().enumerate() {
            let mut bits = bits;
            while bits != 0 {
                let slot = word * 64 + bits.trailing_zeros() as usize;
                rows.push(slot as u32, vals[slot]);
                bits &= bits - 1;
            }
        }
        rows.end_row();
    }

    /// Featurizes every query as one row of `rows`, replacing what it
    /// held.
    pub fn push_rows<'q>(
        &self,
        db: &Database,
        queries: impl Iterator<Item = &'q JoinQuery>,
        scratch: &mut FeatureScratch,
        rows: &mut SparseRows,
    ) {
        rows.clear();
        for q in queries {
            self.push_row(db, q, scratch, rows);
        }
    }

    /// Featurizes every query into a dense `n × dim` row-major matrix
    /// (training sets).
    pub fn dense_rows<'q>(
        &self,
        db: &Database,
        queries: impl Iterator<Item = &'q JoinQuery>,
    ) -> Matrix {
        let mut rows = SparseRows::default();
        self.push_rows(db, queries, &mut FeatureScratch::default(), &mut rows);
        let mut xs = Matrix::zeros(0, self.dim());
        xs.rows = rows.len();
        rows.scatter_dense(xs.cols, &mut xs.data);
        xs
    }
}

fn canonical_edge(lt: usize, lc: usize, rt: usize, rc: usize) -> (usize, usize, usize, usize) {
    if (lt, lc) <= (rt, rc) {
        (lt, lc, rt, rc)
    } else {
        (rt, rc, lt, lc)
    }
}

/// Log-space target used by all query-driven methods.
pub fn card_to_label(card: f64) -> f32 {
    (card.max(0.0) + 1.0).log2() as f32
}

/// Inverse of [`card_to_label`].
pub fn label_to_card(label: f32) -> f64 {
    (2.0f64.powf(label as f64) - 1.0).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_datagen::{stats_catalog, StatsConfig};
    use cardbench_query::{JoinEdge, Predicate};

    fn db() -> Database {
        Database::new(stats_catalog(&StatsConfig::tiny(3)))
    }

    #[test]
    fn dim_matches_schema() {
        let db = db();
        let f = Featurizer::fit(&db);
        // 8 tables + 12 joins + 3×23 attrs.
        assert_eq!(f.dim(), 8 + 12 + 69);
    }

    #[test]
    fn features_mark_tables_and_joins() {
        let db = db();
        let f = Featurizer::fit(&db);
        let q = JoinQuery {
            tables: vec!["users".into(), "badges".into()],
            joins: vec![JoinEdge::new(0, "Id", 1, "UserId")],
            predicates: vec![Predicate::new(0, "Reputation", Region::ge(50))],
        };
        let v = f.dense_rows(&db, std::iter::once(&q)).data;
        assert_eq!(v[..8].iter().filter(|&&x| x == 1.0).count(), 2);
        assert_eq!(v[8..20].iter().filter(|&&x| x == 1.0).count(), 1);
        // One predicate triple set: present=1 plus lo/hi (lo may be 0.0).
        let nz = v[20..].iter().filter(|&&x| x > 0.0).count();
        assert!((2..=3).contains(&nz), "nonzero predicate slots: {nz}");
    }

    #[test]
    fn label_roundtrip() {
        for card in [0.0, 1.0, 100.0, 1e9] {
            let back = label_to_card(card_to_label(card));
            assert!(
                (back - card).abs() / (card + 1.0) < 1e-3,
                "card {card} back {back}"
            );
        }
    }
}
