//! Shared estimator infrastructure: per-table coders.
//!
//! A [`TableCoder`] turns one table into the discretized matrix the
//! data-driven models train on: one column per filterable attribute plus
//! one *fanout column* per directed schema join edge incident to the
//! table (the match count of each row's key in the neighbour column).
//! Fanout columns are what let per-table models estimate joins with the
//! divide-and-conquer method (see [`crate::fanout`]).

use std::collections::HashMap;

use cardbench_engine::Database;
use cardbench_ml::Discretizer;
use cardbench_query::Region;
use cardbench_storage::TableId;

/// One directed schema join edge as seen from a table: "my column `my_col`
/// matches `neighbor.neighbor_col`".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DirectedEdge {
    /// This table's id.
    pub table: TableId,
    /// This table's join column index.
    pub my_col: usize,
    /// Neighbour table id.
    pub neighbor: TableId,
    /// Neighbour join column index.
    pub neighbor_col: usize,
}

/// Enumerates the directed edges of the whole schema (each catalog join
/// relation yields two).
pub fn directed_edges(db: &Database) -> Vec<DirectedEdge> {
    let mut out = Vec::new();
    for j in db.catalog().joins() {
        let lt = db.catalog().table_id(&j.left_table).expect("table");
        let rt = db.catalog().table_id(&j.right_table).expect("table");
        let lc = db
            .catalog()
            .table(lt)
            .schema()
            .column_index(&j.left_column)
            .expect("column");
        let rc = db
            .catalog()
            .table(rt)
            .schema()
            .column_index(&j.right_column)
            .expect("column");
        out.push(DirectedEdge {
            table: lt,
            my_col: lc,
            neighbor: rt,
            neighbor_col: rc,
        });
        out.push(DirectedEdge {
            table: rt,
            my_col: rc,
            neighbor: lt,
            neighbor_col: lc,
        });
    }
    out
}

/// What a model column encodes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ModelColumn {
    /// A filterable attribute (column index in the base table).
    Attr(usize),
    /// Fanout toward a directed edge.
    Fanout(DirectedEdge),
}

/// Per-table coder: discretizers and binned data for attributes + fanouts.
#[derive(Debug, Clone)]
pub struct TableCoder {
    /// The table this coder covers.
    pub table: TableId,
    /// Model columns in order.
    pub columns: Vec<ModelColumn>,
    /// Discretizer per model column.
    pub discretizers: Vec<Discretizer>,
    /// Bins per model column *including* the trailing NULL bin.
    pub bins: Vec<usize>,
    /// Mean raw value per bin per model column (used as expectation
    /// weights for fanout columns). NULL bin mean is 0.
    pub bin_means: Vec<Vec<f64>>,
    /// Lookup: base-table attr column → model column index.
    attr_index: HashMap<usize, usize>,
    /// Lookup: directed edge → model column index.
    fanout_index: HashMap<DirectedEdge, usize>,
}

impl TableCoder {
    /// Builds a coder for `table`, including fanout columns when
    /// `with_fanouts` (data-driven estimators) or only attributes
    /// (single-table models with join-uniformity).
    pub fn fit(db: &Database, table: TableId, max_bins: usize, with_fanouts: bool) -> TableCoder {
        let t = db.catalog().table(table);
        let mut columns: Vec<ModelColumn> = t
            .schema()
            .filterable_columns()
            .into_iter()
            .map(ModelColumn::Attr)
            .collect();
        if with_fanouts {
            for e in directed_edges(db) {
                if e.table == table {
                    columns.push(ModelColumn::Fanout(e));
                }
            }
        }
        let raw: Vec<Vec<Option<i64>>> =
            columns.iter().map(|mc| raw_values(db, table, mc)).collect();
        let mut discretizers = Vec::with_capacity(columns.len());
        let mut bins = Vec::with_capacity(columns.len());
        let mut bin_means = Vec::with_capacity(columns.len());
        for vals in &raw {
            let non_null: Vec<i64> = vals.iter().flatten().copied().collect();
            let d = Discretizer::fit(&non_null, max_bins);
            let nb = d.bin_count();
            // Per-bin means of raw values.
            let mut sums = vec![0.0f64; nb + 1];
            let mut cnts = vec![0.0f64; nb + 1];
            for v in &non_null {
                let b = d.bin_of(*v);
                sums[b] += *v as f64;
                cnts[b] += 1.0;
            }
            let means: Vec<f64> = (0..nb + 1)
                .map(|b| {
                    if cnts[b] > 0.0 {
                        sums[b] / cnts[b]
                    } else {
                        0.0
                    }
                })
                .collect();
            discretizers.push(d);
            bins.push(nb + 1); // +1 NULL bin
            bin_means.push(means);
        }
        let mut attr_index = HashMap::new();
        let mut fanout_index = HashMap::new();
        for (i, mc) in columns.iter().enumerate() {
            match mc {
                ModelColumn::Attr(c) => {
                    attr_index.insert(*c, i);
                }
                ModelColumn::Fanout(e) => {
                    fanout_index.insert(*e, i);
                }
            }
        }
        TableCoder {
            table,
            columns,
            discretizers,
            bins,
            bin_means,
            attr_index,
            fanout_index,
        }
    }

    /// Bins the table's current rows (or any row range) into model
    /// columns. `rows` of `None` means all rows.
    pub fn binned(&self, db: &Database, rows: Option<&[usize]>) -> Vec<Vec<u16>> {
        let t = db.catalog().table(self.table);
        let all: Vec<usize>;
        let rows: &[usize] = match rows {
            Some(r) => r,
            None => {
                all = (0..t.row_count()).collect();
                &all
            }
        };
        self.columns
            .iter()
            .enumerate()
            .map(|(mi, mc)| {
                let d = &self.discretizers[mi];
                let null_bin = d.bin_count() as u16;
                rows.iter()
                    .map(|&r| match raw_value(db, self.table, mc, r) {
                        Some(v) => d.bin_of(v) as u16,
                        None => null_bin,
                    })
                    .collect()
            })
            .collect()
    }

    /// Model column index of a base-table attribute, if modeled.
    pub fn attr_column(&self, base_col: usize) -> Option<usize> {
        self.attr_index.get(&base_col).copied()
    }

    /// Model column index of a directed-edge fanout, if modeled.
    pub fn fanout_column(&self, edge: &DirectedEdge) -> Option<usize> {
        self.fanout_index.get(edge).copied()
    }

    /// Expectation weights for a fanout column: the per-bin mean fanout
    /// (NULL bin contributes 0 — a row with no match joins nothing).
    pub fn fanout_weights(&self, model_col: usize) -> &[f64] {
        &self.bin_means[model_col]
    }

    /// Total coder size in bytes (discretizers + means).
    pub fn size_bytes(&self) -> usize {
        self.discretizers
            .iter()
            .map(Discretizer::heap_size)
            .sum::<usize>()
            + self.bin_means.iter().map(|m| m.len() * 8).sum::<usize>()
    }
}

/// Indicator/coverage weights of a filter region over the bins of `d`,
/// plus a trailing NULL bin of weight 0, into `w`: the one coder from a
/// region to the per-bin weights a model multiplies in.
#[inline]
pub fn region_weights(d: &Discretizer, region: &Region, w: &mut Vec<f64>) {
    let nb = d.bin_count();
    w.clear();
    w.resize(nb + 1, 0.0);
    match region {
        Region::Range { lo, hi } => {
            if let Some((b_lo, b_hi)) = d.bin_range(*lo, *hi) {
                for (b, wb) in w.iter_mut().enumerate().take(b_hi + 1).skip(b_lo) {
                    *wb = d.coverage(b, *lo, *hi);
                }
            }
        }
        Region::In(vals) => {
            for &v in vals {
                if let Some((b, _)) = d.bin_range(v, v) {
                    w[b] = (w[b] + d.coverage(b, v, v)).min(1.0);
                }
            }
        }
    }
}

/// Raw (pre-binning) value of a model column for one row.
fn raw_value(db: &Database, table: TableId, mc: &ModelColumn, row: usize) -> Option<i64> {
    let t = db.catalog().table(table);
    match mc {
        ModelColumn::Attr(c) => t.column(*c).get(row),
        ModelColumn::Fanout(e) => {
            let key = t.column(e.my_col).get(row)?;
            Some(db.degree(e.neighbor, e.neighbor_col, key) as i64)
        }
    }
}

/// Raw values of a model column for all rows.
fn raw_values(db: &Database, table: TableId, mc: &ModelColumn) -> Vec<Option<i64>> {
    let n = db.catalog().table(table).row_count();
    (0..n).map(|r| raw_value(db, table, mc, r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_storage::{
        Catalog, Column, ColumnDef, ColumnKind, JoinKind, JoinRelation, Table, TableSchema,
    };

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
                    Column::from_values(vec![1, 2, 3]),
                    Column::from_datums([Some(10), Some(20), None]),
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
                    Column::from_values(vec![1, 1, 2]),
                    Column::from_values(vec![5, 6, 7]),
                ],
            )
            .unwrap(),
        );
        cat.add_join(JoinRelation::new("a", "id", "b", "aid", JoinKind::PkFk))
            .unwrap();
        Database::new(cat)
    }

    #[test]
    fn directed_edges_both_ways() {
        let db = db();
        let edges = directed_edges(&db);
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].table, TableId(0));
        assert_eq!(edges[1].table, TableId(1));
    }

    #[test]
    fn coder_includes_fanouts() {
        let db = db();
        let coder = TableCoder::fit(&db, TableId(0), 16, true);
        // x attr + fanout toward b.
        assert_eq!(coder.columns.len(), 2);
        assert!(coder.attr_column(1).is_some());
        let edges = directed_edges(&db);
        assert!(coder.fanout_column(&edges[0]).is_some());
    }

    #[test]
    fn fanout_values_are_degrees() {
        let db = db();
        let coder = TableCoder::fit(&db, TableId(0), 16, true);
        let binned = coder.binned(&db, None);
        let f = coder.fanout_column(&directed_edges(&db)[0]).unwrap();
        let w = coder.fanout_weights(f);
        // Degrees: a.id 1 → 2, a.id 2 → 1, a.id 3 → 0. Bin means recover
        // them exactly (lossless small domain).
        let means: Vec<f64> = binned[f].iter().map(|&b| w[b as usize]).collect();
        assert_eq!(means, vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn null_attr_goes_to_null_bin() {
        let db = db();
        let coder = TableCoder::fit(&db, TableId(0), 16, true);
        let a = coder.attr_column(1).unwrap();
        let binned = coder.binned(&db, None);
        let null_bin = (coder.bins[a] - 1) as u16;
        assert_eq!(binned[a][2], null_bin);
        // Filters never match the NULL bin.
        let mut w = Vec::new();
        region_weights(
            &coder.discretizers[a],
            &Region::between(i64::MIN, i64::MAX),
            &mut w,
        );
        assert_eq!(w[null_bin as usize], 0.0);
    }

    #[test]
    fn filter_weights_cover_region() {
        let db = db();
        let coder = TableCoder::fit(&db, TableId(0), 16, true);
        let a = coder.attr_column(1).unwrap();
        let mut w = Vec::new();
        region_weights(&coder.discretizers[a], &Region::eq(10), &mut w);
        // Lossless bins: exactly the bin of value 10 is weighted 1.
        assert_eq!(w.iter().filter(|&&x| x > 0.0).count(), 1);
        assert_eq!(w.iter().copied().fold(0.0, f64::max), 1.0);
    }
}
