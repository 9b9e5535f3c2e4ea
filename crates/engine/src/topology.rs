//! The query-shape half of plan search, computed once per join topology.
//!
//! P-Error puts the optimizer on the hot path ~17× per query: every
//! estimator kind replans the same query, and `p_error` replans it twice
//! more under estimated and true cardinalities. All of those calls share
//! the *shape* of the search — which table subsets are connected, how
//! each subset splits into two connected halves, which join edge links
//! the halves, and the cross-product bound of each subset. None of that
//! depends on the injected cardinalities, so [`JoinTopology`] precomputes
//! it once and the cardinality-dependent DP
//! ([`crate::optimizer::optimize_topo`]) replays over the precomputed
//! lattice with dense array indexing and no hashing or subtree cloning.
//!
//! Topologies are memoized on the [`Database`]
//! ([`Database::topology`](crate::Database::topology)) in a sharded map
//! keyed by [`JoinTopology::structural_key`], so repeated query templates
//! and all estimator kinds share one enumeration.

use cardbench_query::{connected_subsets, BoundQuery, JoinQuery, TableMask};
use cardbench_support::hash::{word, OFFSET};

use crate::database::Database;

/// Sentinel dense index meaning "no mask here" in the compressed
/// mask→index table.
const ABSENT: u32 = u32::MAX;

/// Compressed mask→dense-index table. Queries up to 16 tables (the
/// benchmark tops out at 8) get a direct-addressed array over all
/// `2^n` masks — three loads replace three hash probes in the DP inner
/// loop; wider queries fall back to a hash map.
#[derive(Debug)]
enum MaskIndex {
    /// `table[mask] = dense index`, `ABSENT` for disconnected masks.
    Direct(Vec<u32>),
    /// Sparse fallback for `n > 16`.
    Sparse(std::collections::HashMap<u64, u32>),
}

impl MaskIndex {
    fn build(n: usize, masks: &[TableMask]) -> MaskIndex {
        if n <= 16 {
            let mut table = vec![ABSENT; 1usize << n];
            for (i, &m) in masks.iter().enumerate() {
                table[m.0 as usize] = i as u32;
            }
            MaskIndex::Direct(table)
        } else {
            MaskIndex::Sparse(
                masks
                    .iter()
                    .enumerate()
                    .map(|(i, &m)| (m.0, i as u32))
                    .collect(),
            )
        }
    }

    #[inline]
    fn get(&self, mask: u64) -> Option<u32> {
        match self {
            MaskIndex::Direct(t) => match t[mask as usize] {
                ABSENT => None,
                i => Some(i),
            },
            MaskIndex::Sparse(m) => m.get(&mask).copied(),
        }
    }
}

/// One way to split a connected subset into two connected halves, with
/// the join edge connecting them already resolved. `s1`/`s2` are dense
/// indices into the topology's mask list; `s1`'s mask is numerically the
/// larger of the pair (each unordered partition is stored once — the DP
/// explores both role assignments).
#[derive(Debug, Clone, Copy)]
pub struct Partition {
    /// Dense index of the numerically larger half.
    pub s1: u32,
    /// Dense index of the numerically smaller half.
    pub s2: u32,
    /// Index into `bound.joins` of the first edge crossing the split
    /// (the same resolution order the pre-topology optimizer used).
    pub edge: u32,
    /// True when either half is a single base table — the only
    /// partitions the left-deep restricted search may use.
    pub single_side: bool,
}

/// The cardinality-independent shape of one query's plan search:
/// the connected-subset lattice in ascending-size order, a compressed
/// mask→dense-index table, every connected two-way partition with its
/// resolved connecting edge, and per-subset cross-product bounds.
#[derive(Debug)]
pub struct JoinTopology {
    n: usize,
    /// Connected subsets, ascending `(size, mask)` — exactly
    /// [`connected_subsets`] order, so dense index `i` and the `i`-th
    /// enumerated sub-plan always agree.
    masks: Vec<TableMask>,
    index: MaskIndex,
    /// All partitions, flattened; `ranges[i]` slices this per mask.
    partitions: Vec<Partition>,
    /// `[start, end)` into `partitions` per dense index (empty for
    /// singletons).
    ranges: Vec<(u32, u32)>,
    /// Cross-product cardinality of each subset's tables — the
    /// PostgreSQL-style upper bound no sub-plan estimate may exceed.
    cross_bounds: Vec<f64>,
}

impl JoinTopology {
    /// Structural cache key: a 64-bit FNV-1a hash of everything the
    /// topology depends on — table count, the positional join-edge list
    /// (edge *indices* are recorded in plans, so order matters), and the
    /// bound table ids (which fix the cross-product bounds on a given
    /// database). Predicates and join columns are deliberately excluded:
    /// they do not change the lattice, so templates differing only in
    /// filter values share one topology. Note this is positional, unlike
    /// [`JoinQuery::canonical_hash`]: the lattice is a structure over
    /// table *positions*, so an order-invariant key would alias permuted
    /// queries whose masks mean different tables.
    pub fn structural_key(query: &JoinQuery, bound: &BoundQuery) -> u64 {
        let h = word(OFFSET, query.table_count() as u64);
        let h = bound.tables.iter().fold(h, |h, t| word(h, t.id.0 as u64));
        bound
            .joins
            .iter()
            .fold(h, |h, e| word(word(h, e.left as u64), e.right as u64))
    }

    /// Enumerates the full topology of `(query, bound)` on `db`. One-time
    /// cost per distinct shape; cached callers go through
    /// [`Database::topology`](crate::Database::topology).
    pub fn build(query: &JoinQuery, bound: &BoundQuery, db: &Database) -> JoinTopology {
        let n = query.table_count();
        assert!((1..=64).contains(&n));
        let masks = connected_subsets(query);
        let index = MaskIndex::build(n, &masks);
        let mut partitions = Vec::new();
        let mut ranges = Vec::with_capacity(masks.len());
        let mut cross_bounds = Vec::with_capacity(masks.len());
        for &mask in &masks {
            cross_bounds.push(
                mask.iter()
                    .map(|pos| db.row_count(bound.tables[pos].id) as f64)
                    .product(),
            );
            let start = partitions.len() as u32;
            if mask.count() >= 2 {
                let m = mask.0;
                // Proper submasks, descending; each unordered pair once.
                let mut s1 = (m - 1) & m;
                while s1 > 0 {
                    let s2 = m & !s1;
                    if s1 > s2 {
                        if let (Some(i1), Some(i2)) = (index.get(s1), index.get(s2)) {
                            if let Some(edge) = connecting_edge(bound, TableMask(s1), TableMask(s2))
                            {
                                partitions.push(Partition {
                                    s1: i1,
                                    s2: i2,
                                    edge: edge as u32,
                                    single_side: s1.count_ones() == 1 || s2.count_ones() == 1,
                                });
                            }
                        }
                    }
                    s1 = (s1 - 1) & m;
                }
            }
            ranges.push((start, partitions.len() as u32));
        }
        JoinTopology {
            n,
            masks,
            index,
            partitions,
            ranges,
            cross_bounds,
        }
    }

    /// Number of tables in the query shape.
    pub fn table_count(&self) -> usize {
        self.n
    }

    /// The connected subsets, ascending `(size, mask)` — bit-identical to
    /// [`connected_subsets`] on the originating query.
    pub fn masks(&self) -> &[TableMask] {
        &self.masks
    }

    /// Dense index of a connected mask, `None` for disconnected ones.
    #[inline]
    pub fn index_of(&self, mask: TableMask) -> Option<usize> {
        self.index.get(mask.0).map(|i| i as usize)
    }

    /// The connected two-way partitions of the subset at dense index `i`
    /// (empty for singletons).
    #[inline]
    pub fn partitions_of(&self, i: usize) -> &[Partition] {
        let (s, e) = self.ranges[i];
        &self.partitions[s as usize..e as usize]
    }

    /// Cross-product bound of the subset at dense index `i`.
    #[inline]
    pub fn cross_bound(&self, i: usize) -> f64 {
        self.cross_bounds[i]
    }

    /// Total number of stored partitions (diagnostics / benches).
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }
}

/// Finds the bound-join edge connecting two disjoint masks, if any — the
/// first such edge in `bound.joins` order, which is the edge index
/// recorded in plans.
pub(crate) fn connecting_edge(bound: &BoundQuery, a: TableMask, b: TableMask) -> Option<usize> {
    bound.joins.iter().position(|e| {
        (a.contains(e.left) && b.contains(e.right)) || (b.contains(e.left) && a.contains(e.right))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_query::{JoinEdge, Predicate, Region};
    use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

    fn db(names: &[(&str, usize)]) -> Database {
        let mut cat = Catalog::new();
        for &(name, rows) in names {
            cat.add_table(
                Table::from_columns(
                    TableSchema::new(
                        name,
                        vec![
                            ColumnDef::new("k", ColumnKind::ForeignKey),
                            ColumnDef::new("v", ColumnKind::Numeric),
                        ],
                    ),
                    vec![
                        Column::from_values((0..rows as i64).collect()),
                        Column::from_values((0..rows as i64).map(|i| i % 7).collect()),
                    ],
                )
                .unwrap(),
            );
        }
        Database::new(cat)
    }

    fn chain(n: usize) -> JoinQuery {
        JoinQuery {
            tables: (0..n).map(|i| format!("t{i}")).collect(),
            joins: (0..n - 1)
                .map(|i| JoinEdge::new(i, "k", i + 1, "k"))
                .collect(),
            predicates: vec![Predicate::new(0, "v", Region::eq(3))],
        }
    }

    #[test]
    fn masks_match_connected_subsets() {
        let q = chain(4);
        let d = db(&[("t0", 10), ("t1", 20), ("t2", 30), ("t3", 40)]);
        let bound = BoundQuery::bind(&q, d.catalog()).unwrap();
        let topo = JoinTopology::build(&q, &bound, &d);
        assert_eq!(topo.masks(), connected_subsets(&q).as_slice());
        for (i, &m) in topo.masks().iter().enumerate() {
            assert_eq!(topo.index_of(m), Some(i));
        }
        assert_eq!(topo.index_of(TableMask(0b0101)), None, "disconnected");
    }

    #[test]
    fn partitions_are_connected_pairs_with_edges() {
        let q = chain(4);
        let d = db(&[("t0", 10), ("t1", 20), ("t2", 30), ("t3", 40)]);
        let bound = BoundQuery::bind(&q, d.catalog()).unwrap();
        let topo = JoinTopology::build(&q, &bound, &d);
        for (i, &mask) in topo.masks().iter().enumerate() {
            let parts = topo.partitions_of(i);
            if mask.count() < 2 {
                assert!(parts.is_empty());
                continue;
            }
            assert!(!parts.is_empty(), "composite mask must split");
            for p in parts {
                let m1 = topo.masks()[p.s1 as usize];
                let m2 = topo.masks()[p.s2 as usize];
                assert!(m1.disjoint(m2));
                assert_eq!(m1.union(m2), mask);
                assert!(m1.0 > m2.0, "unordered pair stored once, larger first");
                assert_eq!(
                    connecting_edge(&bound, m1, m2),
                    Some(p.edge as usize),
                    "edge resolution must match the legacy probe"
                );
                assert_eq!(p.single_side, m1.count() == 1 || m2.count() == 1);
            }
        }
    }

    #[test]
    fn cross_bounds_are_row_products() {
        let q = chain(3);
        let d = db(&[("t0", 10), ("t1", 20), ("t2", 30)]);
        let bound = BoundQuery::bind(&q, d.catalog()).unwrap();
        let topo = JoinTopology::build(&q, &bound, &d);
        let i = topo.index_of(TableMask(0b011)).unwrap();
        assert_eq!(topo.cross_bound(i), 200.0);
        let full = topo.index_of(TableMask::full(3)).unwrap();
        assert_eq!(topo.cross_bound(full), 6000.0);
    }

    #[test]
    fn structural_key_ignores_predicates_not_structure() {
        let d = db(&[("t0", 10), ("t1", 20), ("t2", 30)]);
        let q1 = chain(3);
        let mut q2 = chain(3);
        q2.predicates = vec![Predicate::new(1, "v", Region::le(5))];
        let b1 = BoundQuery::bind(&q1, d.catalog()).unwrap();
        let b2 = BoundQuery::bind(&q2, d.catalog()).unwrap();
        assert_eq!(
            JoinTopology::structural_key(&q1, &b1),
            JoinTopology::structural_key(&q2, &b2),
            "templates differing only in filters share a topology"
        );
        // A different edge shape must not share.
        let q3 = JoinQuery {
            tables: q1.tables.clone(),
            joins: vec![JoinEdge::new(0, "k", 1, "k"), JoinEdge::new(0, "k", 2, "k")],
            predicates: vec![],
        };
        let b3 = BoundQuery::bind(&q3, d.catalog()).unwrap();
        assert_ne!(
            JoinTopology::structural_key(&q1, &b1),
            JoinTopology::structural_key(&q3, &b3)
        );
        // Same shape over different tables (ids) must not share either:
        // cross-product bounds depend on the tables.
        let q4 = JoinQuery {
            tables: vec!["t1".into(), "t0".into(), "t2".into()],
            joins: q1.joins.clone(),
            predicates: vec![],
        };
        let b4 = BoundQuery::bind(&q4, d.catalog()).unwrap();
        assert_ne!(
            JoinTopology::structural_key(&q1, &b1),
            JoinTopology::structural_key(&q4, &b4)
        );
    }
}
