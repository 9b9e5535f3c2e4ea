//! Exact sub-plan cardinalities.
//!
//! For acyclic equi-join queries with per-table filters, the exact count
//! is computable in `O(total filtered rows)` by message passing on the
//! join tree — no join materialization. This service backs the TrueCard
//! baseline, Q-Error denominators, and P-Error's true-cardinality costing,
//! exactly like the paper's pre-computed true cardinalities.

use std::sync::Arc;

use cardbench_query::{connected_subsets, BoundQuery, JoinQuery, SubPlanQuery, TableMask};
use cardbench_storage::StorageError;
use cardbench_support::hash::FnvHashMap;
use cardbench_support::memo::Memo;

use crate::database::{Database, KeyWeightAgg};

/// Caching true-cardinality oracle, safe to share across threads.
///
/// Entries are keyed by [`JoinQuery::canonical_hash`] — a 64-bit hash
/// invariant under table/join/predicate reordering — so the hot lookup
/// path allocates nothing.
#[derive(Debug, Default)]
pub struct TrueCardService {
    cache: Memo<f64>,
}

impl TrueCardService {
    /// Creates an empty service.
    pub fn new() -> TrueCardService {
        TrueCardService::default()
    }

    /// Number of cached entries.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// `(hits, misses)` of the true-cardinality cache since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.stats()
    }

    /// Exact cardinality of `query` on `db`, cached by canonical hash.
    /// Two threads racing on an uncached query may both compute it; they
    /// insert the same value, so the race is benign.
    pub fn cardinality(&self, db: &Database, query: &JoinQuery) -> Result<f64, StorageError> {
        let key = query.canonical_hash();
        if let Some(v) = self.cache.get(key) {
            return Ok(v);
        }
        let v = exact_cardinality(db, query)?;
        self.cache.insert(key, v);
        Ok(v)
    }

    /// Exact cardinalities of *every* connected sub-plan of `query`, in
    /// [`connected_subsets`] order, filling all `2^n − 1` cache entries
    /// at once. When every sub-plan is already cached this is pure
    /// lookups; otherwise one call to [`subplan_true_cards`] enumerates
    /// them all in a single bottom-up pass — the amortized path the
    /// harness and the TrueCard oracle use instead of `2^n − 1` separate
    /// [`exact_cardinality`] traversals.
    pub fn cardinalities_for_query(
        &self,
        db: &Database,
        query: &JoinQuery,
    ) -> Result<Vec<(TableMask, f64)>, StorageError> {
        let subs = SubPlanQuery::project_all(query);
        self.cardinalities_for_subplans(db, query, &subs)
    }

    /// [`TrueCardService::cardinalities_for_query`] with the sub-plan
    /// projections supplied by the caller. The harness already projects
    /// every connected subset for estimator inference; passing those in
    /// here spares a second full projection pass per query. `subs` must
    /// be the projections of `connected_subsets(query)`, in that order
    /// (the same order a cached `JoinTopology`'s mask list follows).
    pub fn cardinalities_for_subplans(
        &self,
        db: &Database,
        query: &JoinQuery,
        subs: &[SubPlanQuery],
    ) -> Result<Vec<(TableMask, f64)>, StorageError> {
        debug_assert!(subs.iter().map(|s| s.mask).eq(connected_subsets(query)));
        let cached: Vec<(u64, Option<f64>)> = subs
            .iter()
            .map(|s| {
                let key = s.query.canonical_hash();
                (key, self.cache.get(key))
            })
            .collect();
        if let Some(all) = subs
            .iter()
            .zip(&cached)
            .map(|(s, &(_, v))| Some((s.mask, v?)))
            .collect()
        {
            return Ok(all);
        }
        let all = subplan_true_cards(db, query)?;
        debug_assert!(all.iter().map(|&(m, _)| m).eq(subs.iter().map(|s| s.mask)));
        for (&(key, cached), &(_, v)) in cached.iter().zip(&all) {
            if cached.is_none() {
                self.cache.insert(key, v);
            }
        }
        Ok(all)
    }
}

/// Computes the exact cardinality of an acyclic join query by bottom-up
/// message passing over the join tree rooted at position 0.
///
/// Each answer does only the work it needs, and gives the bits the full
/// traversal would:
///
/// - A table whose filters match no row empties the join, so the
///   traversal stops at the first one. If that table is the root, the
///   full traversal would sum the root's weights over no rows, which is
///   `−0.0` (the identity of a float sum); otherwise it sums zeros,
///   `+0.0`.
/// - A node whose weights all become zero empties every ancestor, so
///   the traversal stops there too and answers `+0.0`.
/// - A leaf without predicates weighs every row 1.0, so its key→weight
///   message is the shared [`Database::key_weight_aggregate`] entry for
///   its join column, not a map of its own: all the unfiltered
///   instances of a schema share one map per `(table, column)`.
pub fn exact_cardinality(db: &Database, query: &JoinQuery) -> Result<f64, StorageError> {
    assert!(
        query.joins.is_empty() || query.is_acyclic(),
        "exact_cardinality requires an acyclic join query"
    );
    let bound = BoundQuery::bind(query, db.catalog())?;
    let n = query.table_count();

    // Filtered row ids per table, via the database's memoized scans: a
    // table's filter repeats across every sub-plan that contains it, so
    // all but the first request per (table, predicates) are map lookups.
    if n == 1 {
        let bt = &bound.tables[0];
        return Ok(db.filtered_rows(bt.id, &bt.predicates).len() as f64);
    }
    let mut filtered: Vec<Arc<Vec<u32>>> = Vec::with_capacity(n);
    for (t, bt) in bound.tables.iter().enumerate() {
        let rows = db.filtered_rows(bt.id, &bt.predicates);
        if rows.is_empty() {
            return Ok(if t == 0 {
                std::iter::empty::<f64>().sum()
            } else {
                0.0
            });
        }
        filtered.push(rows);
    }

    // Root the join tree at position 0 via BFS.
    let mut parent_edge: Vec<Option<usize>> = vec![None; n];
    let mut is_leaf = vec![true; n];
    let mut order = vec![0usize];
    let mut seen = vec![false; n];
    seen[0] = true;
    let mut qi = 0;
    while qi < order.len() {
        let t = order[qi];
        qi += 1;
        for (ei, e) in bound.joins.iter().enumerate() {
            let other = if e.left == t {
                e.right
            } else if e.right == t {
                e.left
            } else {
                continue;
            };
            if !seen[other] {
                seen[other] = true;
                parent_edge[other] = Some(ei);
                is_leaf[t] = false;
                order.push(other);
            }
        }
    }
    debug_assert!(seen.iter().all(|&s| s), "query must be connected");

    // weights[t][i] = number of join combinations of t's subtree rooted at
    // filtered row i; a leaf's are all 1.0 and never stored.
    let mut weights: Vec<Vec<f64>> = (0..n)
        .map(|t| {
            if is_leaf[t] {
                Vec::new()
            } else {
                vec![1.0; filtered[t].len()]
            }
        })
        .collect();
    for &t in order.iter().rev() {
        let Some(ei) = parent_edge[t] else { continue };
        let e = &bound.joins[ei];
        let (p, child_col, parent_col) = if e.left == t {
            (e.right, e.left_col, e.right_col)
        } else {
            (e.left, e.right_col, e.left_col)
        };
        // Aggregate child weights by key.
        let memo: KeyWeightAgg;
        let own: FnvHashMap<i64, f64>;
        let by_key = if is_leaf[t] && bound.tables[t].predicates.is_empty() {
            memo = db.key_weight_aggregate(bound.tables[t].id, &[], child_col);
            &*memo
        } else {
            let ccol = db.catalog().table(bound.tables[t].id).column(child_col);
            let mut m = FnvHashMap::with_capacity_and_hasher(filtered[t].len(), Default::default());
            for (i, &r) in filtered[t].iter().enumerate() {
                if let Some(v) = ccol.get(r as usize) {
                    *m.entry(v).or_insert(0.0) += if is_leaf[t] { 1.0 } else { weights[t][i] };
                }
            }
            own = m;
            &own
        };
        let pcol = db.catalog().table(bound.tables[p].id).column(parent_col);
        let mut live = false;
        for (w, &r) in weights[p].iter_mut().zip(filtered[p].iter()) {
            let m = pcol
                .get(r as usize)
                .and_then(|v| by_key.get(&v).copied())
                .unwrap_or(0.0);
            *w *= m;
            live |= *w != 0.0;
        }
        if !live {
            return Ok(0.0);
        }
    }
    Ok(weights[0].iter().sum())
}

/// Exact cardinalities of **all** connected sub-plans of an acyclic join
/// query in one bottom-up pass, returned in [`connected_subsets`] order.
///
/// The per-mask route pays a full message-passing traversal per sub-plan
/// — `O(Σ_{S} Σ_{t∈S} rows(t))` over all `2^n − 1` connected subsets.
/// This enumerator instead roots the join tree once (at the max-degree
/// table, so the widest cross-product of child subtrees happens at one
/// node) and runs a single DP: every connected subset has a unique
/// topmost node in the rooted tree, so at each node `t` we maintain one
/// weight vector per subset topped at `t`, built incrementally:
///
/// - start with the singleton `{t}`, `w[i] = 1` per filtered row `i`;
/// - per child `c` (in BFS order), aggregate each of `c`'s states into a
///   key→weight message over `c`'s join column — the singleton message
///   is the shared [`Database::key_weight_aggregate`] memo — then extend
///   every existing state `S` of `t` with every state `C` of `c`:
///   `w_{S∪C}[i] = w_S[i] × msg_C[key(i)]`.
///
/// Each subset is materialized exactly once and costs `O(rows(top))`
/// instead of `O(Σ rows)`, and cardinality is the sum of its top node's
/// weight vector. All arithmetic is the same sums-of-products of exact
/// integer counts as [`exact_cardinality`], so per-mask results agree
/// bit-for-bit with it whenever every table has filtered rows. An empty
/// top node sums to `−0.0` here, where [`exact_cardinality`] may answer
/// `+0.0` (it counts a single table, and roots a join at position 0).
pub fn subplan_true_cards(
    db: &Database,
    query: &JoinQuery,
) -> Result<Vec<(TableMask, f64)>, StorageError> {
    assert!(
        query.joins.is_empty() || query.is_acyclic(),
        "subplan_true_cards requires an acyclic join query"
    );
    let bound = BoundQuery::bind(query, db.catalog())?;
    let n = query.table_count();
    let filtered: Vec<Arc<Vec<u32>>> = bound
        .tables
        .iter()
        .map(|t| db.filtered_rows(t.id, &t.predicates))
        .collect();

    if n == 1 {
        return Ok(vec![(TableMask::single(0), filtered[0].len() as f64)]);
    }

    // Root at the max-degree table (lowest position on ties): the node
    // with the most children is where the DP multiplies the most child
    // subtrees together, and rooting there keeps every other node's
    // state count small.
    let mut degree = vec![0usize; n];
    for e in &bound.joins {
        degree[e.left] += 1;
        degree[e.right] += 1;
    }
    let root = (0..n).max_by_key(|&t| (degree[t], n - t)).unwrap_or(0);

    // BFS-root the tree; `parent[t] = (parent position, t's join column,
    // parent's join column)`.
    let mut parent: Vec<Option<(usize, usize, usize)>> = vec![None; n];
    let mut order = vec![root];
    let mut seen = vec![false; n];
    seen[root] = true;
    let mut qi = 0;
    while qi < order.len() {
        let t = order[qi];
        qi += 1;
        for e in bound.joins.iter() {
            let (other, child_col, parent_col) = if e.left == t {
                (e.right, e.right_col, e.left_col)
            } else if e.right == t {
                (e.left, e.left_col, e.right_col)
            } else {
                continue;
            };
            if !seen[other] {
                seen[other] = true;
                parent[other] = Some((t, child_col, parent_col));
                order.push(other);
            }
        }
    }
    debug_assert!(seen.iter().all(|&s| s), "query must be connected");
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &t in &order {
        if let Some((p, _, _)) = parent[t] {
            children[p].push(t);
        }
    }

    // states[t]: one (mask, per-row weights) pair per connected subset
    // whose topmost node is t. Child states are condensed to key→weight
    // messages before they expand the parent, so extending a state costs
    // one hash probe per parent row — the amortization this pass exists
    // for. Messages for singleton children come from the cross-query
    // aggregate memo; composite states aggregate their own weights.
    let mut states: Vec<Vec<(u64, Vec<f64>)>> = filtered
        .iter()
        .enumerate()
        .map(|(t, rows)| vec![(1u64 << t, vec![1.0; rows.len()])])
        .collect();
    for &t in order.iter().rev() {
        let t_table = db.catalog().table(bound.tables[t].id);
        for &c in &children[t] {
            let (_, child_col, parent_col) = parent[c].expect("child has a parent");
            let ccol = db.catalog().table(bound.tables[c].id).column(child_col);
            let msgs: Vec<(u64, KeyWeightAgg)> = states[c]
                .iter()
                .map(|(cmask, w)| {
                    let agg = if *cmask == 1u64 << c {
                        db.key_weight_aggregate(
                            bound.tables[c].id,
                            &bound.tables[c].predicates,
                            child_col,
                        )
                    } else {
                        let mut by_key: FnvHashMap<i64, f64> = FnvHashMap::with_capacity_and_hasher(
                            filtered[c].len(),
                            Default::default(),
                        );
                        for (i, &r) in filtered[c].iter().enumerate() {
                            if let Some(v) = ccol.get(r as usize) {
                                *by_key.entry(v).or_insert(0.0) += w[i];
                            }
                        }
                        Arc::new(by_key)
                    };
                    (*cmask, agg)
                })
                .collect();
            let pcol = t_table.column(parent_col);
            let mut extended: Vec<(u64, Vec<f64>)> =
                Vec::with_capacity(states[t].len() * msgs.len());
            for (smask, w) in &states[t] {
                for (cmask, msg) in &msgs {
                    let w2: Vec<f64> = filtered[t]
                        .iter()
                        .enumerate()
                        .map(|(i, &r)| {
                            let m = pcol
                                .get(r as usize)
                                .and_then(|v| msg.get(&v).copied())
                                .unwrap_or(0.0);
                            w[i] * m
                        })
                        .collect();
                    extended.push((smask | cmask, w2));
                }
            }
            states[t].extend(extended);
        }
    }

    let mut out: Vec<(TableMask, f64)> = states
        .into_iter()
        .flat_map(|per_node| {
            per_node
                .into_iter()
                .map(|(mask, w)| (TableMask(mask), w.iter().sum::<f64>()))
        })
        .collect();
    out.sort_by_key(|&(m, _)| (m.count(), m.0));
    debug_assert_eq!(out.len(), connected_subsets(query).len());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_query::{JoinEdge, Predicate, Region};
    use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

    /// a(id, x): (1,1) (2,2) (3,3); b(aid, y): (1,10) (1,20) (2,10);
    /// c(bid=aid reuse): join through b.
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
                    Column::from_values(vec![1, 2, 3]),
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
                    Column::from_values(vec![10, 20, 10]),
                ],
            )
            .unwrap(),
        );
        Database::new(cat)
    }

    /// Brute-force nested-loop count for cross-checking.
    fn brute(db: &Database, q: &JoinQuery) -> f64 {
        let bound = BoundQuery::bind(q, db.catalog()).unwrap();
        let filtered: Vec<Vec<u32>> = bound
            .tables
            .iter()
            .map(|t| db.scan_filtered(t.id, &t.predicates))
            .collect();
        let mut count = 0f64;
        let mut rows = vec![0u32; q.table_count()];
        fn rec(
            db: &Database,
            bound: &BoundQuery,
            filtered: &[Vec<u32>],
            rows: &mut Vec<u32>,
            depth: usize,
            count: &mut f64,
        ) {
            if depth == filtered.len() {
                let ok = bound.joins.iter().all(|e| {
                    let lt = db.catalog().table(bound.tables[e.left].id);
                    let rt = db.catalog().table(bound.tables[e.right].id);
                    let lv = lt.column(e.left_col).get(rows[e.left] as usize);
                    let rv = rt.column(e.right_col).get(rows[e.right] as usize);
                    matches!((lv, rv), (Some(a), Some(b)) if a == b)
                });
                if ok {
                    *count += 1.0;
                }
                return;
            }
            for &r in &filtered[depth] {
                rows[depth] = r;
                rec(db, bound, filtered, rows, depth + 1, count);
            }
        }
        rec(db, &bound, &filtered, &mut rows, 0, &mut count);
        count
    }

    #[test]
    fn two_table_join_count() {
        let db = db();
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![],
        };
        assert_eq!(exact_cardinality(&db, &q).unwrap(), 3.0);
        assert_eq!(brute(&db, &q), 3.0);
    }

    #[test]
    fn join_with_filters() {
        let db = db();
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![
                Predicate::new(0, "x", Region::le(1)),
                Predicate::new(1, "y", Region::eq(10)),
            ],
        };
        let exact = exact_cardinality(&db, &q).unwrap();
        assert_eq!(exact, brute(&db, &q));
        assert_eq!(exact, 1.0);
    }

    /// `a ⋈ b` with one predicate that matches nothing.
    fn empty_side(table: usize, column: &str) -> JoinQuery {
        JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![Predicate::new(table, column, Region::eq(99))],
        }
    }

    #[test]
    fn empty_root_table_sums_nothing() {
        // The root's weights are a sum over no rows: −0.0, the identity
        // of a float sum.
        let db = db();
        let q = empty_side(0, "x");
        assert_eq!(
            exact_cardinality(&db, &q).unwrap().to_bits(),
            (-0.0f64).to_bits()
        );
    }

    #[test]
    fn empty_non_root_table_sums_zeros() {
        let db = db();
        let q = empty_side(1, "y");
        assert_eq!(
            exact_cardinality(&db, &q).unwrap().to_bits(),
            0.0f64.to_bits()
        );
    }

    #[test]
    fn middle_table_that_empties_its_parent_sums_zeros() {
        // a ⋈ b ⋈ c rooted at a: every table has rows, but no b.y is a
        // c.y, so b's weights all become zero before a sees them.
        let mut cat = db().catalog().clone();
        cat.add_table(
            Table::from_columns(
                TableSchema::new("c", vec![ColumnDef::new("y", ColumnKind::ForeignKey)]),
                vec![Column::from_values(vec![30, 40])],
            )
            .unwrap(),
        );
        let db = Database::new(cat);
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into(), "c".into()],
            joins: vec![
                JoinEdge::new(0, "id", 1, "aid"),
                JoinEdge::new(1, "y", 2, "y"),
            ],
            predicates: vec![],
        };
        assert_eq!(
            exact_cardinality(&db, &q).unwrap().to_bits(),
            0.0f64.to_bits()
        );
        assert_eq!(brute(&db, &q), 0.0);
        assert_one_pass_matches(&db, &q);
    }

    #[test]
    fn only_unfiltered_leaves_read_the_aggregate_memo() {
        let db = db();
        let mut q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![Predicate::new(0, "x", Region::le(2))],
        };
        assert_eq!(exact_cardinality(&db, &q).unwrap(), 3.0);
        assert_eq!(exact_cardinality(&db, &q).unwrap(), 3.0);
        assert_eq!(db.agg_cache_stats(), (1, 1), "leaf b's map is shared");
        q.predicates.push(Predicate::new(1, "y", Region::eq(10)));
        assert_eq!(exact_cardinality(&db, &q).unwrap(), 2.0);
        assert_eq!(
            db.agg_cache_stats(),
            (1, 1),
            "a filtered leaf builds its own"
        );
    }

    #[test]
    fn single_table_is_filter_count() {
        let db = db();
        let q = JoinQuery::single("b", vec![Predicate::new(0, "y", Region::eq(10))]);
        assert_eq!(exact_cardinality(&db, &q).unwrap(), 2.0);
    }

    #[test]
    fn service_caches() {
        let db = db();
        let svc = TrueCardService::new();
        let q = JoinQuery::single("a", vec![]);
        assert_eq!(svc.cardinality(&db, &q).unwrap(), 3.0);
        assert_eq!(svc.cached(), 1);
        assert_eq!(svc.cardinality(&db, &q).unwrap(), 3.0);
        assert_eq!(svc.cached(), 1);
    }

    #[test]
    fn matches_brute_force_on_random_chains() {
        use cardbench_support::rand::rngs::StdRng;
        use cardbench_support::rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..10 {
            // Random 3-table chain with small domains.
            let mut cat = Catalog::new();
            for (name, cols) in [
                ("t0", ("id", "v")),
                ("t1", ("fk", "v")),
                ("t2", ("fk", "v")),
            ] {
                let n = rng.gen_range(3..12);
                let key: Vec<i64> = (0..n).map(|_| rng.gen_range(0..5)).collect();
                let val: Vec<i64> = (0..n).map(|_| rng.gen_range(0..4)).collect();
                cat.add_table(
                    Table::from_columns(
                        TableSchema::new(
                            name,
                            vec![
                                ColumnDef::new(cols.0, ColumnKind::ForeignKey),
                                ColumnDef::new(cols.1, ColumnKind::Numeric),
                            ],
                        ),
                        vec![Column::from_values(key), Column::from_values(val)],
                    )
                    .unwrap(),
                );
            }
            let db = Database::new(cat);
            let q = JoinQuery {
                tables: vec!["t0".into(), "t1".into(), "t2".into()],
                joins: vec![
                    JoinEdge::new(0, "id", 1, "fk"),
                    JoinEdge::new(1, "fk", 2, "fk"),
                ],
                predicates: vec![Predicate::new(2, "v", Region::le(2))],
            };
            assert_eq!(
                exact_cardinality(&db, &q).unwrap(),
                brute(&db, &q),
                "trial {trial}"
            );
        }
    }

    /// One-pass enumeration must equal per-mask `exact_cardinality` on
    /// every connected subset, bit for bit.
    fn assert_one_pass_matches(db: &Database, q: &JoinQuery) {
        let all = subplan_true_cards(db, q).unwrap();
        let masks = cardbench_query::connected_subsets(q);
        assert_eq!(all.len(), masks.len());
        for (&(mask, card), &want_mask) in all.iter().zip(&masks) {
            assert_eq!(mask, want_mask, "mask order must match connected_subsets");
            let sub = cardbench_query::SubPlanQuery::project(q, mask);
            let per_mask = exact_cardinality(db, &sub.query).unwrap();
            assert_eq!(
                card.to_bits(),
                per_mask.to_bits(),
                "mask {:b}: one-pass {card} vs per-mask {per_mask}",
                mask.0
            );
        }
    }

    #[test]
    fn one_pass_matches_per_mask_on_fixture() {
        let db = db();
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![Predicate::new(1, "y", Region::eq(10))],
        };
        assert_one_pass_matches(&db, &q);
    }

    #[test]
    fn one_pass_single_table() {
        let db = db();
        let q = JoinQuery::single("b", vec![Predicate::new(0, "y", Region::eq(10))]);
        let all = subplan_true_cards(&db, &q).unwrap();
        assert_eq!(all, vec![(cardbench_query::TableMask(1), 2.0)]);
    }

    #[test]
    fn one_pass_matches_per_mask_on_random_trees() {
        use cardbench_support::rand::rngs::StdRng;
        use cardbench_support::rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..10 {
            let n = rng.gen_range(2..6);
            let mut cat = Catalog::new();
            for i in 0..n {
                let rows = rng.gen_range(3..12);
                let key: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..5)).collect();
                let val: Vec<i64> = (0..rows).map(|_| rng.gen_range(0..4)).collect();
                cat.add_table(
                    Table::from_columns(
                        TableSchema::new(
                            format!("t{i}"),
                            vec![
                                ColumnDef::new("k", ColumnKind::ForeignKey),
                                ColumnDef::new("v", ColumnKind::Numeric),
                            ],
                        ),
                        vec![Column::from_values(key), Column::from_values(val)],
                    )
                    .unwrap(),
                );
            }
            let db = Database::new(cat);
            // Random tree: node i attaches to a random earlier node.
            let joins: Vec<JoinEdge> = (1..n)
                .map(|i| JoinEdge::new(rng.gen_range(0..i), "k", i, "k"))
                .collect();
            let q = JoinQuery {
                tables: (0..n).map(|i| format!("t{i}")).collect(),
                joins,
                predicates: vec![Predicate::new(n - 1, "v", Region::le(2))],
            };
            assert_one_pass_matches(&db, &q);
            let _ = trial;
        }
    }

    #[test]
    fn bulk_api_fills_cache_and_matches_per_mask() {
        let db = db();
        let svc = TrueCardService::new();
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![],
        };
        let all = svc.cardinalities_for_query(&db, &q).unwrap();
        assert_eq!(all.len(), 3, "two singletons + the pair");
        assert_eq!(svc.cached(), 3, "bulk call must fill every entry");
        let (_, misses) = svc.cache_stats();
        assert_eq!(misses, 3);
        // Every later per-sub lookup is a hit with the same value.
        for &(mask, card) in &all {
            let sub = cardbench_query::SubPlanQuery::project(&q, mask);
            let one = svc.cardinality(&db, &sub.query).unwrap();
            assert_eq!(one.to_bits(), card.to_bits());
        }
        let (hits, misses) = svc.cache_stats();
        assert_eq!((hits, misses), (3, 3));
        // A second bulk call is all hits.
        let again = svc.cardinalities_for_query(&db, &q).unwrap();
        assert_eq!(again, all);
        let (hits, _) = svc.cache_stats();
        assert_eq!(hits, 6);
    }
}
