//! A catalog wrapped with per-column sorted indexes and cached statistics.

use std::cmp::Ordering;
use std::sync::Arc;

use cardbench_query::{BoundPredicate, BoundQuery, JoinQuery, Region};
use cardbench_storage::{Catalog, ColumnStats, StorageError, Table, TableId};
use cardbench_support::hash::{word, FnvHashMap, OFFSET};
use cardbench_support::memo::Memo;

use crate::topology::JoinTopology;

/// A sorted index over one column: `(value, row)` pairs ordered by value.
/// NULL rows are excluded (no predicate or join matches NULL).
#[derive(Debug, Clone, Default)]
pub struct SortedIndex {
    entries: Vec<(i64, u32)>,
}

impl SortedIndex {
    /// Builds the index for `column` of `table`.
    fn build(table: &Table, column: usize) -> SortedIndex {
        let col = table.column(column);
        let mut entries: Vec<(i64, u32)> = (0..table.row_count())
            .filter_map(|r| col.get(r).map(|v| (v, r as u32)))
            .collect();
        entries.sort_unstable();
        SortedIndex { entries }
    }

    /// Rows whose value lies in `[lo, hi]`, in value order.
    pub fn range(&self, lo: i64, hi: i64) -> impl Iterator<Item = u32> + '_ {
        let start = self.entries.partition_point(|&(v, _)| v < lo);
        self.entries[start..]
            .iter()
            .take_while(move |&&(v, _)| v <= hi)
            .map(|&(_, r)| r)
    }

    /// Rows with exactly `value`.
    pub fn equal(&self, value: i64) -> impl Iterator<Item = u32> + '_ {
        self.range(value, value)
    }

    /// Number of rows with exactly `value` (O(log n)).
    pub fn count_equal(&self, value: i64) -> usize {
        let start = self.entries.partition_point(|&(v, _)| v < value);
        let end = self.entries.partition_point(|&(v, _)| v <= value);
        end - start
    }

    /// All `(value, row)` entries in value order.
    pub fn entries(&self) -> &[(i64, u32)] {
        &self.entries
    }

    /// `k`-th entry of the rows with `value` (for wander-join random
    /// neighbour picks): returns the row, or `None` if `k >= count`.
    pub fn kth_equal(&self, value: i64, k: usize) -> Option<u32> {
        let start = self.entries.partition_point(|&(v, _)| v < value);
        match self.entries.get(start + k) {
            Some(&(v, r)) if v == value => Some(r),
            _ => None,
        }
    }
}

/// Per-join-key weight totals for one `(table, predicate set, join
/// column)` triple, shared by reference between sub-plans: the message a
/// leaf sends up in true-cardinality message passing. Read by
/// [`crate::subplan_true_cards`] for every singleton child and by
/// [`crate::exact_cardinality`] for every leaf without predicates. Keys
/// hash with FNV (the map is probed once per parent row, and the keys
/// are the database's own values); each key's weights are still summed
/// in row order, so the hasher moves no total.
pub type KeyWeightAgg = Arc<FnvHashMap<i64, f64>>;

/// Total order on bound predicates: by column, then region (ranges before
/// IN-lists, each by their values). Used to canonicalize predicate order
/// before hashing so permuted-but-equal sets share one cache entry.
fn cmp_predicates(a: &BoundPredicate, b: &BoundPredicate) -> Ordering {
    a.column
        .cmp(&b.column)
        .then_with(|| match (&a.region, &b.region) {
            (Region::Range { lo: al, hi: ah }, Region::Range { lo: bl, hi: bh }) => {
                (al, ah).cmp(&(bl, bh))
            }
            (Region::Range { .. }, Region::In(_)) => Ordering::Less,
            (Region::In(_), Region::Range { .. }) => Ordering::Greater,
            (Region::In(av), Region::In(bv)) => av.cmp(bv),
        })
}

/// FNV-1a key for one `(table, predicate set)` pair. Predicates are
/// hashed in canonical (sorted) order, so a permuted-but-equal set — as
/// produced by binding the same filters listed differently — maps to the
/// same entry instead of paying a duplicate scan.
fn filter_key(table: TableId, predicates: &[BoundPredicate]) -> u64 {
    let hash_one = |h: u64, p: &BoundPredicate| {
        let h = word(h, p.column as u64);
        match &p.region {
            Region::Range { lo, hi } => word(word(word(h, 1), *lo as u64), *hi as u64),
            Region::In(vals) => vals
                .iter()
                .fold(word(word(h, 2), vals.len() as u64), |h, &v| {
                    word(h, v as u64)
                }),
        }
    };
    let h = word(OFFSET, table.0 as u64);
    if predicates.len() < 2 || predicates.is_sorted_by(|a, b| cmp_predicates(a, b).is_le()) {
        predicates.iter().fold(h, hash_one)
    } else {
        let mut sorted: Vec<&BoundPredicate> = predicates.iter().collect();
        sorted.sort_by(|a, b| cmp_predicates(a, b));
        sorted.into_iter().fold(h, hash_one)
    }
}

/// Key of one `(table, predicate set, join column)` aggregate: the filter
/// key extended with the column the weights aggregate over.
fn agg_key(table: TableId, predicates: &[BoundPredicate], column: usize) -> u64 {
    word(filter_key(table, predicates), column as u64 ^ 0xa66a_a66a)
}

/// An indexed database: the catalog plus sorted indexes and cached column
/// statistics for every column of every table.
#[derive(Debug)]
pub struct Database {
    catalog: Catalog,
    /// `indexes[table][column]`.
    indexes: Vec<Vec<SortedIndex>>,
    /// `stats[table][column]`.
    stats: Vec<Vec<ColumnStats>>,
    /// Shared derived data, emptied by [`Database::refresh`]: filtered
    /// scans, key→weight aggregates and join topologies.
    filter_cache: Memo<Arc<Vec<u32>>>,
    agg_cache: Memo<KeyWeightAgg>,
    topology_cache: Memo<Arc<JoinTopology>>,
}

impl Database {
    /// Builds indexes and statistics for every column.
    pub fn new(catalog: Catalog) -> Database {
        let mut indexes = Vec::with_capacity(catalog.table_count());
        let mut stats = Vec::with_capacity(catalog.table_count());
        for t in catalog.tables() {
            let per_col_idx: Vec<SortedIndex> = (0..t.column_count())
                .map(|c| SortedIndex::build(t, c))
                .collect();
            let per_col_stats: Vec<ColumnStats> = (0..t.column_count())
                .map(|c| t.column(c).compute_stats())
                .collect();
            indexes.push(per_col_idx);
            stats.push(per_col_stats);
        }
        Database {
            catalog,
            indexes,
            stats,
            filter_cache: Memo::default(),
            agg_cache: Memo::default(),
            topology_cache: Memo::default(),
        }
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// Index of `column` on `table`.
    pub fn index(&self, table: TableId, column: usize) -> &SortedIndex {
        &self.indexes[table.0][column]
    }

    /// Cached statistics of `column` on `table`.
    pub fn stats(&self, table: TableId, column: usize) -> &ColumnStats {
        &self.stats[table.0][column]
    }

    /// Row count of a table.
    pub fn row_count(&self, table: TableId) -> usize {
        self.catalog.table(table).row_count()
    }

    /// Evaluates `predicates` on one row of a base table.
    #[inline]
    pub fn row_matches(&self, table: TableId, row: u32, predicates: &[BoundPredicate]) -> bool {
        let t = self.catalog.table(table);
        predicates.iter().all(|p| {
            t.column(p.column)
                .get(row as usize)
                .is_some_and(|v| p.region.contains(v))
        })
    }

    /// Row ids of a base table matching all `predicates`, via a full scan.
    pub fn scan_filtered(&self, table: TableId, predicates: &[BoundPredicate]) -> Vec<u32> {
        let n = self.row_count(table);
        (0..n as u32)
            .filter(|&r| self.row_matches(table, r, predicates))
            .collect()
    }

    /// Estimated rows of `table` matching one predicate, from the cached
    /// [`ColumnStats`]: the fraction of the column's value range a `Range`
    /// overlaps (uniformity assumption), or `len × rows-per-distinct` for
    /// an `In` list. Only used to rank candidate driving predicates, so
    /// only the relative order matters.
    fn estimated_match_rows(&self, table: TableId, p: &BoundPredicate) -> f64 {
        let s = self.stats(table, p.column);
        let non_null = (s.row_count - s.null_count) as f64;
        match &p.region {
            Region::Range { lo, hi } => {
                let (lo, hi) = ((*lo).max(s.min), (*hi).min(s.max));
                if lo > hi {
                    return 0.0;
                }
                let span = (s.max - s.min) as f64 + 1.0;
                let overlap = (hi - lo) as f64 + 1.0;
                non_null * (overlap / span)
            }
            Region::In(vals) => {
                let per_value = non_null / s.distinct_count.max(1) as f64;
                (vals.len() as f64 * per_value).min(non_null)
            }
        }
    }

    /// Picks the most selective predicate to drive an index scan — the one
    /// whose [`ColumnStats`]-estimated match count is smallest (first wins
    /// ties) — so the residual `row_matches` pass visits as few candidate
    /// rows as the statistics can arrange.
    fn driving_predicate(&self, table: TableId, predicates: &[BoundPredicate]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, p) in predicates.iter().enumerate() {
            let est = self.estimated_match_rows(table, p);
            if best.is_none_or(|(_, b)| est < b) {
                best = Some((i, est));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Row ids matching all `predicates`, using the index on the most
    /// selective predicate (per cached statistics) to avoid a full scan.
    pub fn index_filtered(&self, table: TableId, predicates: &[BoundPredicate]) -> Vec<u32> {
        let Some(drive_at) = self.driving_predicate(table, predicates) else {
            return self.scan_filtered(table, predicates);
        };
        let drive = &predicates[drive_at];
        let idx = self.index(table, drive.column);
        let mut rows: Vec<u32> = match &drive.region {
            Region::Range { lo, hi } => idx.range(*lo, *hi).collect(),
            Region::In(vals) => {
                let mut out = Vec::new();
                for &v in vals {
                    out.extend(idx.equal(v));
                }
                out
            }
        };
        let t = self.catalog.table(table);
        rows.retain(|&r| {
            predicates.iter().enumerate().all(|(i, p)| {
                i == drive_at
                    || t.column(p.column)
                        .get(r as usize)
                        .is_some_and(|v| p.region.contains(v))
            })
        });
        rows.sort_unstable();
        rows
    }

    /// Row ids matching all `predicates`, memoized per `(table,
    /// predicate set)`. The first call per key pays one index-assisted
    /// scan; every later call — from another sub-plan, another executor
    /// run, or another thread — is a shard-local map lookup.
    /// `exact_cardinality` alone asks for the same scan once per sub-plan
    /// containing the table, `O(2^{n-1})` times per n-way query. Rows come
    /// back sorted, identical to [`Database::scan_filtered`].
    pub fn filtered_rows(&self, table: TableId, predicates: &[BoundPredicate]) -> Arc<Vec<u32>> {
        self.filter_cache
            .get_or_insert_with(filter_key(table, predicates), || {
                Arc::new(self.index_filtered(table, predicates))
            })
    }

    /// `(hits, misses)` of the filtered-scan memo since construction.
    pub fn filter_cache_stats(&self) -> (u64, u64) {
        self.filter_cache.stats()
    }

    /// How many filtered rows of `table` carry each value of `column`,
    /// memoized per `(table, predicate set, column)`. These are the
    /// per-leaf `by_key` aggregation maps of true-cardinality message
    /// passing: every sub-plan in which `table` is a leaf joined through
    /// `column` needs exactly this map, so sharing it turns
    /// O(sub-plans × rows) rebuild work into one pass per distinct
    /// triple. NULLs are excluded (they join nothing). Weights count
    /// each row once (1.0), summed per key value.
    pub fn key_weight_aggregate(
        &self,
        table: TableId,
        predicates: &[BoundPredicate],
        column: usize,
    ) -> KeyWeightAgg {
        self.agg_cache
            .get_or_insert_with(agg_key(table, predicates, column), || {
                let rows = self.filtered_rows(table, predicates);
                let col = self.catalog.table(table).column(column);
                let mut by_key: FnvHashMap<i64, f64> = FnvHashMap::default();
                for &r in rows.iter() {
                    if let Some(v) = col.get(r as usize) {
                        *by_key.entry(v).or_insert(0.0) += 1.0;
                    }
                }
                Arc::new(by_key)
            })
    }

    /// `(hits, misses)` of the aggregate memo since construction.
    pub fn agg_cache_stats(&self) -> (u64, u64) {
        self.agg_cache.stats()
    }

    /// The precomputed plan-search shape of `(query, bound)`, memoized by
    /// [`JoinTopology::structural_key`]. The first call per distinct join
    /// structure enumerates the connected-subset lattice and partition
    /// list (under a `topology` span); every later call — from another
    /// estimator, a p-error replay, or another thread — is a shard-local
    /// map lookup.
    pub fn topology(&self, query: &JoinQuery, bound: &BoundQuery) -> Arc<JoinTopology> {
        self.topology_cache
            .get_or_insert_with(JoinTopology::structural_key(query, bound), || {
                let _sp = cardbench_obs::span_with("topology", "plan", || {
                    format!("n={}", query.table_count())
                });
                Arc::new(JoinTopology::build(query, bound, self))
            })
    }

    /// `(hits, misses)` of the topology memo since construction.
    pub fn topology_cache_stats(&self) -> (u64, u64) {
        self.topology_cache.stats()
    }

    /// Per-table "fanout" degree of a key value: how many rows of
    /// `table.column` equal `value` (used by join estimation and the
    /// true-cardinality service).
    pub fn degree(&self, table: TableId, column: usize, value: i64) -> usize {
        self.index(table, column).count_equal(value)
    }

    /// Empties the shared derived-data memos (filtered-scan cache,
    /// key-weight aggregate memo, topology memo) without rebuilding
    /// indexes or statistics. Interior mutability (`&self`) so a server
    /// holding the `Database` behind an `Arc` — shared by every live
    /// session — can bound memory or force cold-cache measurements
    /// without exclusive access. Hit/miss counters are *not* reset: they
    /// are monotone by contract, and run-level accounting reads deltas.
    pub fn clear_shared_caches(&self) {
        self.filter_cache.clear();
        self.agg_cache.clear();
        self.topology_cache.clear();
    }

    /// Rebuilds indexes and statistics (after bulk inserts).
    pub fn refresh(&mut self) {
        let catalog = std::mem::take(&mut self.catalog);
        *self = Database::new(catalog);
    }

    /// Appends `deltas[t]` to table `t` for every delta (the shape
    /// `temporal_split` returns), then rebuilds indexes and statistics.
    /// A delta whose arity differs from its table is an error; the deltas
    /// before it stay appended and nothing is rebuilt.
    pub fn append_inserts(&mut self, deltas: &[Table]) -> Result<(), StorageError> {
        for (t, delta) in deltas.iter().enumerate() {
            self.catalog.table_mut(TableId(t)).append_rows(delta)?;
        }
        self.refresh();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_storage::{Column, ColumnDef, ColumnKind, TableSchema};

    fn db() -> Database {
        let mut c = Catalog::new();
        let t = Table::from_columns(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnKind::PrimaryKey),
                    ColumnDef::new("v", ColumnKind::Numeric),
                ],
            ),
            vec![
                Column::from_values(vec![1, 2, 3, 4, 5]),
                Column::from_datums([Some(10), Some(20), Some(20), None, Some(40)]),
            ],
        )
        .unwrap();
        c.add_table(t);
        Database::new(c)
    }

    #[test]
    fn index_range_and_equal() {
        let db = db();
        let idx = db.index(TableId(0), 1);
        assert_eq!(idx.range(15, 25).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(idx.equal(20).count(), 2);
        assert_eq!(idx.count_equal(20), 2);
        assert_eq!(idx.count_equal(99), 0);
        // NULL row excluded.
        assert_eq!(idx.entries().len(), 4);
    }

    #[test]
    fn kth_equal() {
        let db = db();
        let idx = db.index(TableId(0), 1);
        assert_eq!(idx.kth_equal(20, 0), Some(1));
        assert_eq!(idx.kth_equal(20, 1), Some(2));
        assert_eq!(idx.kth_equal(20, 2), None);
    }

    #[test]
    fn scan_and_index_filter_agree() {
        let db = db();
        let preds = vec![BoundPredicate {
            column: 1,
            region: Region::between(15, 45),
        }];
        let a = db.scan_filtered(TableId(0), &preds);
        let b = db.index_filtered(TableId(0), &preds);
        assert_eq!(a, b);
        assert_eq!(a, vec![1, 2, 4]);
    }

    #[test]
    fn null_never_matches() {
        let db = db();
        let preds = vec![BoundPredicate {
            column: 1,
            region: Region::between(i64::MIN, i64::MAX),
        }];
        // Row 3 has NULL v and must not match even an unbounded range.
        assert_eq!(db.scan_filtered(TableId(0), &preds), vec![0, 1, 2, 4]);
    }

    #[test]
    fn filtered_rows_memoizes_and_refresh_clears() {
        let mut db = db();
        let preds = vec![BoundPredicate {
            column: 1,
            region: Region::between(15, 45),
        }];
        let a = db.filtered_rows(TableId(0), &preds);
        assert_eq!(*a, vec![1, 2, 4]);
        assert_eq!(db.filter_cache.len(), 1);
        let b = db.filtered_rows(TableId(0), &preds);
        assert!(Arc::ptr_eq(&a, &b), "second call must hit the memo");
        // Distinct predicate sets get distinct entries.
        db.filtered_rows(TableId(0), &[]);
        assert_eq!(db.filter_cache.len(), 2);
        db.refresh();
        assert_eq!(db.filter_cache.len(), 0, "refresh must drop stale scans");
    }

    #[test]
    fn clear_shared_caches_empties_memos_keeps_counters() {
        let db = db();
        let preds = vec![BoundPredicate {
            column: 1,
            region: Region::between(15, 45),
        }];
        db.filtered_rows(TableId(0), &preds);
        db.filtered_rows(TableId(0), &preds);
        assert_eq!(db.filter_cache.len(), 1);
        let (hits, misses) = db.filter_cache_stats();
        assert_eq!((hits, misses), (1, 1));
        // &self: works through a shared reference, unlike `refresh`.
        db.clear_shared_caches();
        assert_eq!(db.filter_cache.len(), 0);
        assert_eq!(db.agg_cache.len(), 0);
        assert_eq!(db.topology_cache.len(), 0);
        // Counters stay monotone so delta-based accounting never
        // underflows.
        assert_eq!(db.filter_cache_stats(), (hits, misses));
        // Repopulation works and counts a fresh miss.
        let again = db.filtered_rows(TableId(0), &preds);
        assert_eq!(*again, vec![1, 2, 4]);
        assert_eq!(db.filter_cache_stats(), (hits, misses + 1));
    }

    #[test]
    fn degree_counts_matches() {
        let db = db();
        assert_eq!(db.degree(TableId(0), 1, 20), 2);
        assert_eq!(db.degree(TableId(0), 1, 10), 1);
        assert_eq!(db.degree(TableId(0), 1, 999), 0);
    }

    #[test]
    fn permuted_predicates_hit_the_memo() {
        let db = db();
        let a = BoundPredicate {
            column: 0,
            region: Region::between(2, 5),
        };
        let b = BoundPredicate {
            column: 1,
            region: Region::between(15, 45),
        };
        assert_eq!(
            filter_key(TableId(0), &[a.clone(), b.clone()]),
            filter_key(TableId(0), &[b.clone(), a.clone()]),
            "permuted-but-equal predicate sets must share one key"
        );
        let first = db.filtered_rows(TableId(0), &[a.clone(), b.clone()]);
        let second = db.filtered_rows(TableId(0), &[b, a]);
        assert!(
            Arc::ptr_eq(&first, &second),
            "permuted bind must hit the memo, not rescan"
        );
        assert_eq!(db.filter_cache.len(), 1);
        let (hits, misses) = db.filter_cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn filter_key_distinguishes_regions_and_columns() {
        let range = BoundPredicate {
            column: 0,
            region: Region::between(1, 3),
        };
        let inlist = BoundPredicate {
            column: 0,
            region: Region::In(vec![1, 2, 3]),
        };
        let other_col = BoundPredicate {
            column: 1,
            region: Region::between(1, 3),
        };
        let k = |p: &BoundPredicate| filter_key(TableId(0), std::slice::from_ref(p));
        assert_ne!(k(&range), k(&inlist));
        assert_ne!(k(&range), k(&other_col));
        assert_ne!(filter_key(TableId(0), &[]), filter_key(TableId(1), &[]));
    }

    #[test]
    fn filter_and_agg_keys_match_goldens() {
        let range = BoundPredicate {
            column: 0,
            region: Region::between(i64::MIN, -3),
        };
        let inlist = BoundPredicate {
            column: 1,
            region: Region::In(vec![5, -1, i64::MAX]),
        };
        let same_col = BoundPredicate {
            column: 1,
            region: Region::between(2, 9),
        };
        let sets = [
            vec![],
            vec![range.clone()],
            vec![inlist.clone(), range.clone()],
            vec![same_col.clone(), inlist.clone(), range.clone()],
        ];
        let mut keys = Vec::new();
        for (t, set) in sets.iter().enumerate() {
            let mut rev = set.clone();
            rev.reverse();
            let table = TableId(t);
            assert_eq!(filter_key(table, set), filter_key(table, &rev));
            assert_eq!(agg_key(table, set, 3), agg_key(table, &rev, 3));
            keys.push(filter_key(table, set));
            keys.push(agg_key(table, set, 3));
        }
        assert_eq!(
            keys,
            [
                12161962213042174405,
                6017905575747881766,
                16368804282485519167,
                1472064761268188444,
                12299400057975255977,
                571767053772080234,
                18030564890692152195,
                7616327241652146816,
            ]
        );
    }

    /// A table shaped so the first-listed predicate is the *wrong* one to
    /// drive with: `wide` matches every row, `narrow` matches one.
    fn skewed_db() -> Database {
        let mut c = Catalog::new();
        let n = 100i64;
        let t = Table::from_columns(
            TableSchema::new(
                "s",
                vec![
                    ColumnDef::new("wide", ColumnKind::Numeric),
                    ColumnDef::new("narrow", ColumnKind::Numeric),
                ],
            ),
            vec![
                Column::from_values((0..n).map(|i| i % 10).collect::<Vec<_>>()),
                Column::from_values((0..n).collect::<Vec<_>>()),
            ],
        )
        .unwrap();
        c.add_table(t);
        Database::new(c)
    }

    #[test]
    fn driving_predicate_picks_most_selective() {
        let db = skewed_db();
        let wide = BoundPredicate {
            column: 0,
            region: Region::between(0, 9), // all 100 rows
        };
        let narrow = BoundPredicate {
            column: 1,
            region: Region::between(42, 42), // 1 row
        };
        let preds = vec![wide.clone(), narrow.clone()];
        // The stats-driven pick must choose `narrow` even listed second.
        assert_eq!(db.driving_predicate(TableId(0), &preds), Some(1));
        assert!(
            db.estimated_match_rows(TableId(0), &narrow)
                < db.estimated_match_rows(TableId(0), &wide)
        );
        // Residual row visits: driving with `narrow` retains over 1
        // candidate row instead of 100.
        let via_narrow: Vec<u32> = db.index(TableId(0), 1).range(42, 42).collect();
        let via_wide: Vec<u32> = db.index(TableId(0), 0).range(0, 9).collect();
        assert_eq!(via_narrow.len(), 1);
        assert_eq!(via_wide.len(), 100);
        // And the result still agrees with the full scan.
        assert_eq!(
            db.index_filtered(TableId(0), &preds),
            db.scan_filtered(TableId(0), &preds)
        );
        assert_eq!(db.index_filtered(TableId(0), &preds), vec![42]);
    }

    #[test]
    fn key_weight_aggregate_counts_and_memoizes() {
        let db = db();
        let agg = db.key_weight_aggregate(TableId(0), &[], 1);
        // v = [10, 20, 20, NULL, 40]: NULL excluded, 20 counted twice.
        assert_eq!(agg.len(), 3);
        assert_eq!(agg.get(&20), Some(&2.0));
        assert_eq!(agg.get(&10), Some(&1.0));
        assert_eq!(agg.get(&40), Some(&1.0));
        let again = db.key_weight_aggregate(TableId(0), &[], 1);
        assert!(Arc::ptr_eq(&agg, &again), "second call must hit the memo");
        assert_eq!(db.agg_cache.len(), 1);
        assert_eq!(db.agg_cache_stats(), (1, 1));
        // Different column → different entry.
        let ids = db.key_weight_aggregate(TableId(0), &[], 0);
        assert_eq!(ids.len(), 5);
        assert_eq!(db.agg_cache.len(), 2);
    }

    #[test]
    fn topology_memoizes_and_refresh_clears() {
        use cardbench_query::{JoinEdge, Predicate};
        let mut c = Catalog::new();
        for name in ["a", "b"] {
            c.add_table(
                Table::from_columns(
                    TableSchema::new(name, vec![ColumnDef::new("k", ColumnKind::ForeignKey)]),
                    vec![Column::from_values(vec![1, 2, 3])],
                )
                .unwrap(),
            );
        }
        let mut db = Database::new(c);
        let q1 = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "k", 1, "k")],
            predicates: vec![],
        };
        // Same structure, different predicate: must share the entry.
        let mut q2 = q1.clone();
        q2.predicates = vec![Predicate::new(0, "k", Region::eq(2))];
        let b1 = BoundQuery::bind(&q1, db.catalog()).unwrap();
        let b2 = BoundQuery::bind(&q2, db.catalog()).unwrap();
        let t1 = db.topology(&q1, &b1);
        let t2 = db.topology(&q2, &b2);
        assert!(
            Arc::ptr_eq(&t1, &t2),
            "shape-equal queries share one topology"
        );
        assert_eq!(db.topology_cache.len(), 1);
        assert_eq!(db.topology_cache_stats(), (1, 1));
        db.refresh();
        assert_eq!(db.topology_cache.len(), 0, "refresh must drop topologies");
        assert_eq!(db.topology_cache_stats(), (0, 0));
    }

    #[test]
    fn refresh_clears_agg_cache() {
        let mut db = db();
        db.key_weight_aggregate(TableId(0), &[], 1);
        assert_eq!(db.agg_cache.len(), 1);
        db.refresh();
        assert_eq!(db.agg_cache.len(), 0);
        assert_eq!(db.agg_cache_stats(), (0, 0));
    }
}
