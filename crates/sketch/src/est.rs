//! [`SketchEst`]: the sketch-backed
//! [`CardEst`](cardbench_estimators::CardEst) implementation.

use std::ops::Range;

use cardbench_engine::Database;
use cardbench_obs::{counter_add, span_with};
use cardbench_query::{BoundPredicate, BoundQuery, Region, SubPlanQuery};
use cardbench_storage::{Column, Table, TableSchema};
use cardbench_support::hash::{self, fold, FnvHashMap};
use cardbench_support::par;

use crate::cm::{CountMin, DyadicCm};
use crate::hll::Hll;
use crate::{mix64, Direction, SketchConfig};

/// Per-attribute synopsis: distinct count (every column), dyadic
/// frequency (filterable columns), point frequency (join keys), plus
/// exact null count and observed value bounds.
#[derive(Debug, Clone)]
struct ColumnSketch {
    /// Per-column hash seed, derived from table + column name so stale
    /// and full builds address identical cells.
    seed: u64,
    /// Exact count of NULL rows seen (inserts minus deletes).
    nulls: u64,
    /// HyperLogLog++ over non-null values.
    distinct: Hll,
    /// Dyadic count-min on filterable (predicate) columns.
    freq: Option<DyadicCm>,
    /// Plain count-min on join-key columns.
    key_freq: Option<CountMin>,
    /// Observed min/max (sentinels when empty; never shrinks on delete).
    min: i64,
    max: i64,
}

impl ColumnSketch {
    fn new(cfg: &SketchConfig, seed: u64, filterable: bool, key: bool) -> ColumnSketch {
        ColumnSketch {
            seed,
            nulls: 0,
            distinct: Hll::new(cfg.hll_precision),
            freq: filterable.then(|| DyadicCm::new(cfg.cm_depth, cfg.cm_width)),
            key_freq: key.then(|| CountMin::new(cfg.cm_depth, cfg.key_cm_width)),
            min: i64::MAX,
            max: i64::MIN,
        }
    }

    /// The streaming kernel: moves rows `rows` of `col` into or out of
    /// every sketch of this column in one pass. A run of equal values is
    /// hashed once and reaches the key count-min as one update of its
    /// length; the dyadic sketch counts prefix runs per level (see
    /// [`crate::cm::DyadicStream`]). The distinct count is refreshed at
    /// most once, at the end, and only if a register rose. Deletes touch
    /// counts only: registers and observed bounds cannot shrink
    /// (documented overestimate).
    fn stream(&mut self, col: &Column, rows: Range<usize>, dir: Direction) {
        let insert = dir == Direction::Insert;
        // Deletes need a value's hash only for the key count-min.
        let hashed = insert || self.key_freq.is_some();
        let mut freq = self.freq.as_mut().map(|f| f.stream(self.seed, dir));
        // The run of equal values being counted: value, hash, length.
        let mut run: Option<(i64, u64, u64)> = None;
        let mut nulls = 0u64;
        let mut rose = false;
        for r in rows {
            if col.is_null(r) {
                nulls += 1;
                continue;
            }
            let v = col.value_unchecked(r);
            if let Some(f) = &mut freq {
                f.push(v);
            }
            if let Some((last, _, n)) = &mut run {
                if *last == v {
                    *n += 1;
                    continue;
                }
            }
            let h = if hashed {
                mix64(self.seed ^ v as u64)
            } else {
                0
            };
            if let (Some((_, last_h, n)), Some(k)) = (run.replace((v, h, 1)), &mut self.key_freq) {
                k.update(last_h, n, dir);
            }
            if insert {
                rose |= self.distinct.raise(h);
                self.min = self.min.min(v);
                self.max = self.max.max(v);
            }
        }
        if let Some(f) = freq {
            f.finish();
        }
        if let (Some((_, h, n)), Some(k)) = (run, &mut self.key_freq) {
            k.update(h, n, dir);
        }
        self.nulls = dir.step(self.nulls, nulls);
        if rose {
            self.distinct.refresh();
        }
    }

    fn merge(&mut self, other: &ColumnSketch) {
        self.nulls += other.nulls;
        self.distinct.merge(&other.distinct);
        if let (Some(a), Some(b)) = (&mut self.freq, &other.freq) {
            a.merge(b);
        }
        if let (Some(a), Some(b)) = (&mut self.key_freq, &other.key_freq) {
            a.merge(b);
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn size_bytes(&self) -> usize {
        self.distinct.size_bytes()
            + self.freq.as_ref().map_or(0, DyadicCm::size_bytes)
            + self.key_freq.as_ref().map_or(0, CountMin::size_bytes)
            + 4 * std::mem::size_of::<u64>()
    }

    fn digest_into(&self, d: &mut u64) {
        *d = fold(*d, self.seed);
        *d = fold(*d, self.nulls);
        self.distinct.digest_into(d);
        if let Some(f) = &self.freq {
            f.digest_into(d);
        }
        if let Some(k) = &self.key_freq {
            k.digest_into(d);
        }
        *d = fold(*d, self.min as u64);
        *d = fold(*d, self.max as u64);
    }
}

/// The sketch set of one table: exact row count plus one
/// `ColumnSketch` per attribute. All state merges exactly, so partial
/// sketches built over disjoint row ranges combine into the same bits
/// as one sequential scan.
#[derive(Debug, Clone)]
pub struct TableSketch {
    rows: u64,
    cols: Vec<ColumnSketch>,
}

impl TableSketch {
    /// An empty sketch set shaped for `schema`.
    pub fn empty(schema: &TableSchema, cfg: &SketchConfig) -> TableSketch {
        // Seeded by the table's name, so a stale build and a full build of
        // one catalog agree (the refresh-equals-retrain differential).
        let tseed = mix64(cfg.seed ^ hash::bytes(hash::OFFSET, schema.name.as_bytes()));
        let cols = schema
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let seed = mix64(tseed ^ (i as u64 + 1));
                ColumnSketch::new(cfg, seed, c.kind.is_filterable(), c.kind.is_key())
            })
            .collect();
        TableSketch { rows: 0, cols }
    }

    /// Builds a partial sketch over one row range of `table` (the
    /// sharded-scan unit).
    pub fn scan(table: &Table, range: Range<usize>, cfg: &SketchConfig) -> TableSketch {
        let mut ts = TableSketch::empty(table.schema(), cfg);
        ts.stream(table, range, Direction::Insert);
        ts
    }

    /// Streams rows `rows` of `table` in or out, one column at a time:
    /// O(1) cell touches per row and column, fewer where consecutive
    /// values repeat or share dyadic prefixes. Deletes reverse counts
    /// exactly; distinct counts and observed bounds keep their
    /// high-water marks.
    pub(crate) fn stream(&mut self, table: &Table, rows: Range<usize>, dir: Direction) {
        for (c, cs) in self.cols.iter_mut().enumerate() {
            cs.stream(table.column(c), rows.clone(), dir);
        }
        self.rows = dir.step(self.rows, rows.len() as u64);
    }

    /// Merges a partial sketch built over a disjoint row range.
    pub fn merge(&mut self, other: &TableSketch) {
        assert_eq!(self.cols.len(), other.cols.len(), "schema mismatch");
        self.rows += other.rows;
        for (a, b) in self.cols.iter_mut().zip(&other.cols) {
            a.merge(b);
        }
        counter_add("cardbench_sketch_merges_total", &[], 1);
    }

    /// Estimated rows in this table.
    pub fn row_count(&self) -> u64 {
        self.rows
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<u64>()
            + self
                .cols
                .iter()
                .map(ColumnSketch::size_bytes)
                .sum::<usize>()
    }

    /// Folds the full integer state into a running digest.
    pub fn digest_into(&self, d: &mut u64) {
        *d = fold(*d, self.rows);
        for c in &self.cols {
            c.digest_into(d);
        }
    }
}

/// The sketch-backed estimator (`EstimatorKind::Sketch`).
#[derive(Debug, Clone)]
pub struct SketchEst {
    cfg: SketchConfig,
    /// One sketch set per catalog table, indexed by `TableId.0`.
    tables: Vec<TableSketch>,
}

impl SketchEst {
    /// Builds the model with the configured shard count (`cfg.shards`,
    /// `0` = auto via the `--threads`/env knobs).
    pub fn fit(db: &Database, cfg: &SketchConfig) -> SketchEst {
        let shards = if cfg.shards == 0 {
            par::max_threads()
        } else {
            cfg.shards
        };
        SketchEst::fit_sharded(db, cfg, shards)
    }

    /// Builds the model as a sharded scan: every table's row space is
    /// split into up to `shards` contiguous ranges, partial sketches are
    /// built in parallel (scoped threads, dynamic scheduling), and the
    /// partials merge in shard order. Because every combine is
    /// commutative, associative, and integer-only, the result is
    /// bit-identical to `fit_sharded(db, cfg, 1)` for any shard count.
    pub fn fit_sharded(db: &Database, cfg: &SketchConfig, shards: usize) -> SketchEst {
        let shards = shards.max(1);
        let catalog = db.catalog();
        let n = catalog.table_count();
        let _sp = span_with("sketch_build", "build", || {
            format!("{n} tables / {shards} shards")
        });
        // Flatten (table, row range) shard tasks across all tables so the
        // thread pool balances small tables against large ones.
        let mut tasks: Vec<(usize, Range<usize>)> = Vec::new();
        for t in 0..n {
            for range in catalog
                .table(cardbench_storage::TableId(t))
                .shard_ranges(shards)
            {
                tasks.push((t, range));
            }
        }
        let partials = par::map(&tasks, shards, |_, (t, range)| {
            let table = catalog.table(cardbench_storage::TableId(*t));
            TableSketch::scan(table, range.clone(), cfg)
        });
        let mut tables: Vec<TableSketch> = (0..n)
            .map(|t| TableSketch::empty(catalog.table(cardbench_storage::TableId(t)).schema(), cfg))
            .collect();
        // Reduce in task order: deterministic, and exact regardless of
        // order anyway.
        for ((t, _), part) in tasks.iter().zip(&partials) {
            tables[*t].merge(part);
        }
        let est = SketchEst {
            cfg: cfg.clone(),
            tables,
        };
        counter_add(
            "cardbench_sketch_inserts_total",
            &[],
            est.tables.iter().map(|t| t.rows).sum(),
        );
        est
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &SketchConfig {
        &self.cfg
    }

    /// Streams deleted rows out of the sketches (`delta[i]` aligns with
    /// catalog table `i`). Counts reverse exactly; distinct counts and
    /// observed bounds keep their high-water marks, so post-delete
    /// estimates can only err upward.
    pub fn apply_deletes(&mut self, delta: &[Table]) {
        let removed = self.stream_delta(delta, Direction::Delete);
        counter_add("cardbench_sketch_deletes_total", &[], removed);
    }

    /// Streams every row of `delta` (`delta[i]` aligns with catalog
    /// table `i`) in or out; returns the rows streamed.
    fn stream_delta(&mut self, delta: &[Table], dir: Direction) -> u64 {
        let mut streamed = 0u64;
        for (ts, d) in self.tables.iter_mut().zip(delta) {
            ts.stream(d, 0..d.row_count(), dir);
            streamed += d.row_count() as u64;
        }
        streamed
    }

    /// FNV digest of the complete integer state — the fingerprint the
    /// merge- and refresh-bit-identity differentials compare.
    pub fn state_digest(&self) -> u64 {
        let mut d = hash::OFFSET;
        for t in &self.tables {
            t.digest_into(&mut d);
        }
        d
    }

    /// Selectivity of one predicate set on one table, from sketch state
    /// only (attribute independence within the table).
    fn table_selectivity(&self, t: usize, preds: &[BoundPredicate]) -> f64 {
        let Some(ts) = self.tables.get(t) else {
            return 1.0;
        };
        let rows = ts.rows as f64;
        if rows <= 0.0 {
            return 0.0;
        }
        let mut sel = 1.0;
        for p in preds {
            let Some(cs) = ts.cols.get(p.column) else {
                continue;
            };
            let count = match &p.region {
                Region::Range { lo, hi } => {
                    if lo > hi {
                        0.0
                    } else if let Some(f) = &cs.freq {
                        f.range(*lo, *hi, cs.seed)
                    } else {
                        // Key column without a dyadic sketch: uniform
                        // overlap of the requested range with the
                        // observed value bounds.
                        key_range_overlap(cs, *lo, *hi, rows - cs.nulls as f64)
                    }
                }
                Region::In(vals) => {
                    // Sum unique members (duplicates must not double-count).
                    let mut sorted: Vec<i64> = vals.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    sorted
                        .iter()
                        .map(|&v| match (&cs.freq, &cs.key_freq) {
                            (Some(f), _) => f.point(v, cs.seed),
                            (None, Some(k)) => k.point(mix64(cs.seed ^ v as u64)),
                            (None, None) => 0.0,
                        })
                        .sum()
                }
            };
            let non_null = (rows - cs.nulls as f64).max(0.0);
            sel *= (count.clamp(0.0, non_null) / rows).clamp(0.0, 1.0);
        }
        sel
    }

    /// The distinct-count/containment join formula from sketch state:
    /// `Π_t rows_t·sel_t × Π_edges nonnull_l·nonnull_r / max(nd_l, nd_r)`.
    fn join_card(&self, bound: &BoundQuery, sels: &[f64]) -> f64 {
        let mut card = 1.0;
        for (i, bt) in bound.tables.iter().enumerate() {
            let rows = self.tables.get(bt.id.0).map_or(0.0, |t| t.rows as f64);
            card *= rows * sels[i];
        }
        for e in &bound.joins {
            let l = self.tables.get(bound.tables[e.left].id.0);
            let r = self.tables.get(bound.tables[e.right].id.0);
            if let (Some(l), Some(r)) = (l, r) {
                card *= edge_factor(l, e.left_col, r, e.right_col);
            }
        }
        if card.is_finite() {
            card.max(0.0)
        } else {
            // Poison hardening: a pathological product (e.g. overflow to
            // +inf) degrades to the cross-product-free upper bound rather
            // than escaping as a non-finite estimate.
            f64::MAX
        }
    }
}

/// Containment/uniformity factor of one join edge from sketch state.
fn edge_factor(l: &TableSketch, lc: usize, r: &TableSketch, rc: usize) -> f64 {
    let (Some(cl), Some(cr)) = (l.cols.get(lc), r.cols.get(rc)) else {
        return 1.0;
    };
    let frac = |t: &TableSketch, c: &ColumnSketch| -> f64 {
        if t.rows == 0 {
            return 0.0;
        }
        ((t.rows as f64 - c.nulls as f64) / t.rows as f64).clamp(0.0, 1.0)
    };
    let nd = cl.distinct.estimate().max(cr.distinct.estimate()).max(1.0);
    frac(l, cl) * frac(r, cr) / nd
}

/// Uniform-overlap range selectivity for key columns (no dyadic sketch):
/// fraction of `[min, max]` covered by `[lo, hi]`, scaled by the
/// non-null count.
fn key_range_overlap(cs: &ColumnSketch, lo: i64, hi: i64, non_null: f64) -> f64 {
    if cs.min > cs.max || non_null <= 0.0 {
        return 0.0;
    }
    let lo = lo.max(cs.min);
    let hi = hi.min(cs.max);
    if lo > hi {
        return 0.0;
    }
    let overlap = (hi as f64 - lo as f64) + 1.0;
    let domain = (cs.max as f64 - cs.min as f64) + 1.0;
    non_null * (overlap / domain).clamp(0.0, 1.0)
}

impl cardbench_estimators::CardEst for SketchEst {
    fn name(&self) -> &'static str {
        "Sketch"
    }

    /// The one-row case of
    /// [`CardEst::estimate_batch`](cardbench_estimators::CardEst::estimate_batch).
    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.estimate_batch(db, std::slice::from_ref(sub))[0]
    }

    /// Batch leverage: per-(table, predicate-set) selectivities are
    /// shared across the sub-plans of one query (a k-table query's 2^k
    /// sub-plans reuse k selectivities). Memoized values are pure
    /// functions of their key, so an answer does not depend on what
    /// shares its batch.
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        counter_add("cardbench_sketch_estimates_total", &[], subs.len() as u64);
        // The memo key is the exact (table, predicate-set) pair — a
        // hash-only key could collide and silently reuse the wrong
        // selectivity, breaking batch/sequential bit-identity.
        let mut memo: FnvHashMap<(usize, Vec<(usize, Region)>), f64> = FnvHashMap::default();
        subs.iter()
            .map(|sub| {
                let Ok(bound) = BoundQuery::bind(&sub.query, db.catalog()) else {
                    return 1.0;
                };
                let sels: Vec<f64> = bound
                    .tables
                    .iter()
                    .map(|bt| {
                        let key = (
                            bt.id.0,
                            bt.predicates
                                .iter()
                                .map(|p| (p.column, p.region.clone()))
                                .collect(),
                        );
                        *memo
                            .entry(key)
                            .or_insert_with(|| self.table_selectivity(bt.id.0, &bt.predicates))
                    })
                    .collect();
                self.join_card(&bound, &sels)
            })
            .collect()
    }

    fn batch_leverage(&self) -> bool {
        true
    }

    fn model_size_bytes(&self) -> usize {
        self.tables.iter().map(TableSketch::size_bytes).sum()
    }

    fn supports_update(&self) -> bool {
        true
    }

    /// Streams inserted rows into the sketches — O(1) per row, no
    /// retrain pass. For pure inserts the refreshed state is
    /// bit-identical to a from-scratch rebuild on the union (the
    /// refresh-equals-retrain differential).
    fn apply_inserts(&mut self, _db: &Database, delta: &[Table]) {
        let added = self.stream_delta(delta, Direction::Insert);
        counter_add("cardbench_sketch_inserts_total", &[], added);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_estimators::CardEst;
    use cardbench_storage::{Catalog, ColumnDef, ColumnKind, TableId};
    use cardbench_support::proptest::prelude::*;
    use cardbench_support::rand::rngs::StdRng;
    use cardbench_support::rand::Rng;

    fn tiny_db() -> Database {
        let mut c = Catalog::new();
        let t = Table::from_columns(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", ColumnKind::PrimaryKey),
                    ColumnDef::new("x", ColumnKind::Numeric),
                ],
            ),
            vec![
                Column::from_values((0..1000).collect()),
                Column::from_values((0..1000).map(|i| i % 100).collect()),
            ],
        )
        .unwrap();
        c.add_table(t);
        Database::new(c)
    }

    fn full_sub(table: &str, preds: Vec<cardbench_query::Predicate>) -> SubPlanQuery {
        let q = cardbench_query::JoinQuery {
            tables: vec![table.to_string()],
            joins: vec![],
            predicates: preds,
        };
        SubPlanQuery {
            mask: cardbench_query::TableMask::full(1),
            query: q,
        }
    }

    #[test]
    fn unfiltered_single_table_is_exact() {
        let db = tiny_db();
        let est = SketchEst::fit_sharded(&db, &SketchConfig::with_seed(5), 1);
        let e = est.estimate(&db, &full_sub("t", vec![]));
        assert_eq!(e, 1000.0);
    }

    #[test]
    fn range_predicate_tracks_truth() {
        let db = tiny_db();
        let est = SketchEst::fit_sharded(&db, &SketchConfig::with_seed(5), 2);
        let p = cardbench_query::Predicate {
            table: 0,
            column: "x".to_string(),
            region: Region::between(0, 49),
        };
        let e = est.estimate(&db, &full_sub("t", vec![p]));
        // Truth is 500; sketches are noisy but must be in the ballpark.
        assert!((100.0..=1000.0).contains(&e), "estimate {e}");
    }

    #[test]
    fn insert_stream_matches_rebuild_bitwise() {
        let db = tiny_db();
        let cfg = SketchConfig::with_seed(9);
        // Split the table into "stale" (first 600) and "delta" (rest).
        let table = db.catalog().table(TableId(0));
        let stale_rows: Vec<usize> = (0..600).collect();
        let delta_rows: Vec<usize> = (600..1000).collect();
        let stale_t = table.take_rows(&stale_rows);
        let delta_t = table.take_rows(&delta_rows);
        let mut stale_cat = Catalog::new();
        stale_cat.add_table(stale_t);
        let stale_db = Database::new(stale_cat);
        let mut est = SketchEst::fit_sharded(&stale_db, &cfg, 3);
        est.apply_inserts(&db, std::slice::from_ref(&delta_t));
        let full = SketchEst::fit_sharded(&db, &cfg, 1);
        assert_eq!(est.state_digest(), full.state_digest());
    }

    #[test]
    fn delete_stream_reverses_counts() {
        let db = tiny_db();
        let cfg = SketchConfig::with_seed(9);
        let mut est = SketchEst::fit_sharded(&db, &cfg, 1);
        let before = est.estimate(&db, &full_sub("t", vec![]));
        let table = db.catalog().table(TableId(0));
        let doomed = table.take_rows(&(500..1000).collect::<Vec<_>>());
        est.apply_deletes(std::slice::from_ref(&doomed));
        let after = est.estimate(&db, &full_sub("t", vec![]));
        assert_eq!(before, 1000.0);
        assert_eq!(after, 500.0);
    }

    #[test]
    fn poisonous_regions_stay_finite() {
        let db = tiny_db();
        let est = SketchEst::fit_sharded(&db, &SketchConfig::with_seed(1), 2);
        let extremes = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
        for &lo in &extremes {
            for &hi in &extremes {
                for col in ["x", "id"] {
                    let p = cardbench_query::Predicate {
                        table: 0,
                        column: col.to_string(),
                        region: Region::Range { lo, hi },
                    };
                    let e = est.estimate(&db, &full_sub("t", vec![p]));
                    assert!(e.is_finite() && e >= 0.0, "{col} [{lo},{hi}] -> {e}");
                }
            }
        }
        // In-lists with duplicates and extremes; unknown tables bind-fail
        // to the neutral 1.0.
        let p = cardbench_query::Predicate {
            table: 0,
            column: "x".to_string(),
            region: Region::In(vec![5, 5, i64::MIN, i64::MAX, 5]),
        };
        let e = est.estimate(&db, &full_sub("t", vec![p]));
        assert!(e.is_finite() && e >= 0.0, "in-list -> {e}");
        assert_eq!(est.estimate(&db, &full_sub("nope", vec![])), 1.0);
    }

    #[test]
    fn model_is_kilobytes() {
        let db = tiny_db();
        let est = SketchEst::fit(&db, &SketchConfig::with_seed(2));
        let kb = est.model_size_bytes() / 1024;
        assert!(kb < 16, "model unexpectedly large: {kb} KB");
        assert!(est.model_size_bytes() > 0);
    }

    /// Values at and beyond the i32 clamp, where the dyadic mapping
    /// saturates (±2^31 edges, i64 extremes).
    const EDGES: [i64; 9] = [
        i64::MIN,
        -(1 << 31) - 1,
        -(1 << 31),
        -1,
        0,
        (1 << 31) - 1,
        1 << 31,
        (1 << 31) + 1,
        i64::MAX,
    ];

    /// A random column laid out in runs of the shapes run detection
    /// cares about: NULL runs, constant runs, sorted runs, shuffled
    /// values, values alternating in the high prefix bits, and values at
    /// the i32 clamp.
    fn shaped_column(rng: &mut StdRng, n: usize) -> Column {
        let mut datums = Vec::with_capacity(n);
        while datums.len() < n {
            let len = rng.gen_range(1..=(n - datums.len()).min(40)) as i64;
            let shape = rng.gen_range(0..6);
            let base = rng.gen_range(-3000i64..3000);
            let step = rng.gen_range(0i64..20);
            for i in 0..len {
                datums.push(match shape {
                    0 => None,
                    1 => Some(base),
                    2 => Some(base + i * step),
                    3 => Some(rng.gen_range(-5000i64..5000)),
                    4 => Some([base, base ^ (1 << 30), -base - 1][i as usize % 3]),
                    _ => Some(EDGES[rng.gen_range(0..EDGES.len())]),
                });
            }
        }
        Column::from_datums(datums)
    }

    /// A table with one column of every kind, each shaped at random.
    fn shaped_table(rng: &mut StdRng, n: usize) -> Table {
        let kinds = [
            ColumnKind::PrimaryKey,
            ColumnKind::ForeignKey,
            ColumnKind::Numeric,
            ColumnKind::Categorical,
        ];
        let defs = kinds
            .iter()
            .enumerate()
            .map(|(i, &k)| ColumnDef::new(format!("c{i}"), k))
            .collect();
        let cols = kinds.iter().map(|_| shaped_column(rng, n)).collect();
        Table::from_columns(TableSchema::new("t", defs), cols).unwrap()
    }

    fn rows_of(table: &Table, rows: Range<usize>) -> Table {
        table.take_rows(&rows.collect::<Vec<_>>())
    }

    fn digest(ts: &TableSketch) -> u64 {
        let mut d = 0;
        ts.digest_into(&mut d);
        d
    }

    /// Streams `table` one row per call: no run spans two rows.
    fn stream_rowwise(ts: &mut TableSketch, table: &Table, dir: Direction) {
        for r in 0..table.row_count() {
            ts.stream(table, r..r + 1, dir);
        }
    }

    fn assert_distinct_cached(ts: &TableSketch, after: &str) {
        for (c, cs) in ts.cols.iter().enumerate() {
            assert_eq!(
                cs.distinct.estimate().to_bits(),
                cs.distinct.fresh_estimate().to_bits(),
                "column {c} after {after}"
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Streaming a delta in one call, runs shared, lands on the
        /// state of streaming it one row per call, for inserts and for
        /// deletes (saturating ones included); every cached distinct
        /// count equals a fresh recomputation after each step.
        #[test]
        fn streaming_in_runs_equals_row_at_a_time(
            seed in any::<u64>(),
            n in 1usize..300,
            odd in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let table = shaped_table(&mut rng, n);
            let cfg = if odd {
                SketchConfig {
                    cm_width: 17,
                    key_cm_width: 33,
                    cm_depth: 3,
                    hll_precision: 4,
                    ..SketchConfig::with_seed(seed)
                }
            } else {
                SketchConfig::with_seed(seed)
            };
            let whole = TableSketch::scan(&table, 0..n, &cfg);
            assert_distinct_cached(&whole, "scan");

            // Fit the first rows as two merged shards.
            let stale_rows = rng.gen_range(0..=n);
            let split = rng.gen_range(0..=stale_rows);
            let mut fit = TableSketch::scan(&table, 0..split, &cfg);
            fit.merge(&TableSketch::scan(&table, split..stale_rows, &cfg));
            assert_distinct_cached(&fit, "merge");

            let delta = rows_of(&table, stale_rows..n);
            let mut runs = fit.clone();
            runs.stream(&delta, 0..delta.row_count(), Direction::Insert);
            let mut rowwise = fit;
            stream_rowwise(&mut rowwise, &delta, Direction::Insert);
            prop_assert_eq!(digest(&runs), digest(&rowwise));
            prop_assert_eq!(digest(&runs), digest(&whole));
            assert_distinct_cached(&runs, "inserts");

            // Delete a random run of rows; twice over saturates counts.
            let lo = rng.gen_range(0..=n);
            let doomed = rows_of(&table, lo..rng.gen_range(lo..=n));
            for pass in 0..2 {
                runs.stream(&doomed, 0..doomed.row_count(), Direction::Delete);
                stream_rowwise(&mut rowwise, &doomed, Direction::Delete);
                prop_assert_eq!(digest(&runs), digest(&rowwise), "delete pass {}", pass);
                assert_distinct_cached(&runs, "deletes");
            }
        }
    }
}
