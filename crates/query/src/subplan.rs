//! The sub-plan query space: every connected sub-join of a query.
//!
//! The optimizer asks the cardinality estimator about each connected subset
//! of a query's tables (with the induced join edges and filter predicates).
//! The paper injects estimates for exactly this space into PostgreSQL.

use crate::join::{JoinEdge, JoinQuery};

/// Bitmask over a query's table positions (up to 64 tables; STATS-CEB tops
/// out at 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TableMask(pub u64);

impl TableMask {
    /// Mask with a single table.
    pub fn single(t: usize) -> TableMask {
        TableMask(1u64 << t)
    }

    /// Mask with tables `0..n`.
    pub fn full(n: usize) -> TableMask {
        debug_assert!(n <= 64);
        if n == 64 {
            TableMask(u64::MAX)
        } else {
            TableMask((1u64 << n) - 1)
        }
    }

    /// True when table `t` is present.
    #[inline]
    pub fn contains(self, t: usize) -> bool {
        (self.0 >> t) & 1 == 1
    }

    /// Union.
    #[inline]
    pub fn union(self, other: TableMask) -> TableMask {
        TableMask(self.0 | other.0)
    }

    /// True when the masks share no table.
    #[inline]
    pub fn disjoint(self, other: TableMask) -> bool {
        self.0 & other.0 == 0
    }

    /// Number of tables present.
    #[inline]
    pub fn count(self) -> u32 {
        self.0.count_ones()
    }

    /// Iterator over the table positions present.
    pub fn iter(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let t = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(t)
            }
        })
    }
}

/// A sub-plan query: the restriction of a [`JoinQuery`] to a connected
/// table subset. Holds a standalone [`JoinQuery`] (so estimators can treat
/// it uniformly) plus the mask that produced it.
#[derive(Debug, Clone)]
pub struct SubPlanQuery {
    /// The projected query: only the masked tables, the induced join
    /// edges, and the predicates on masked tables (indices re-based).
    pub query: JoinQuery,
    /// Which tables of the parent query this covers.
    pub mask: TableMask,
}

impl SubPlanQuery {
    /// Projects `parent` onto `mask`. The caller guarantees `mask` is
    /// connected in the parent join graph.
    pub fn project(parent: &JoinQuery, mask: TableMask) -> SubPlanQuery {
        let kept: Vec<usize> = mask.iter().collect();
        let remap = |old: usize| kept.iter().position(|&k| k == old).expect("table in mask");
        let tables = kept.iter().map(|&k| parent.tables[k].clone()).collect();
        let joins = parent
            .joins
            .iter()
            .filter(|e| mask.contains(e.left) && mask.contains(e.right))
            .map(|e| JoinEdge {
                left: remap(e.left),
                left_col: e.left_col.clone(),
                right: remap(e.right),
                right_col: e.right_col.clone(),
            })
            .collect();
        let predicates = parent
            .predicates
            .iter()
            .filter(|p| mask.contains(p.table))
            .map(|p| {
                let mut p = p.clone();
                p.table = remap(p.table);
                p
            })
            .collect();
        SubPlanQuery {
            query: JoinQuery {
                tables,
                joins,
                predicates,
            },
            mask,
        }
    }

    /// Projects every connected subset of `parent`, in
    /// [`connected_subsets`] order — the order the engine's topology
    /// dense indices follow, so `project_all(q)[i]` always corresponds
    /// to dense index `i`.
    pub fn project_all(parent: &JoinQuery) -> Vec<SubPlanQuery> {
        connected_subsets(parent)
            .into_iter()
            .map(|m| SubPlanQuery::project(parent, m))
            .collect()
    }
}

/// Enumerates every connected subset of the query's join graph, in
/// ascending order of subset size (singletons first). This is the sub-plan
/// query space the optimizer explores.
pub fn connected_subsets(query: &JoinQuery) -> Vec<TableMask> {
    let n = query.table_count();
    debug_assert!(n <= 64);
    let mut out: Vec<TableMask> = Vec::new();
    let full = TableMask::full(n).0;
    // Adjacency as masks for O(1) neighbourhood tests.
    let mut adj = vec![0u64; n];
    for e in &query.joins {
        adj[e.left] |= 1 << e.right;
        adj[e.right] |= 1 << e.left;
    }
    for m in 1..=full {
        let mask = TableMask(m);
        if is_connected_mask(mask, &adj) {
            out.push(mask);
        }
    }
    out.sort_by_key(|m| (m.count(), m.0));
    out
}

/// Connectivity of a mask under adjacency-as-masks.
fn is_connected_mask(mask: TableMask, adj: &[u64]) -> bool {
    let m = mask.0;
    if m == 0 {
        return false;
    }
    let start = m.trailing_zeros() as usize;
    let mut seen = 1u64 << start;
    let mut frontier = seen;
    while frontier != 0 {
        let mut next = 0u64;
        let mut f = frontier;
        while f != 0 {
            let t = f.trailing_zeros() as usize;
            f &= f - 1;
            next |= adj[t] & m & !seen;
        }
        seen |= next;
        frontier = next;
    }
    seen == m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::join::JoinEdge;
    use crate::predicate::{Predicate, Region};
    use cardbench_support::proptest::prelude::*;

    /// Brute-force connectivity check for cross-validation.
    fn brute_connected(mask: u64, n: usize, edges: &[(usize, usize)]) -> bool {
        if mask == 0 {
            return false;
        }
        let start = mask.trailing_zeros() as usize;
        let mut seen = 1u64 << start;
        loop {
            let mut grew = false;
            for &(a, b) in edges {
                if mask >> a & 1 == 1 && mask >> b & 1 == 1 {
                    if seen >> a & 1 == 1 && seen >> b & 1 == 0 {
                        seen |= 1 << b;
                        grew = true;
                    }
                    if seen >> b & 1 == 1 && seen >> a & 1 == 0 {
                        seen |= 1 << a;
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        let _ = n;
        seen == mask
    }

    proptest! {
        /// Enumeration equals the brute-force definition on random trees.
        #[test]
        fn enumeration_matches_brute_force(
            n in 2usize..7,
            parent_seed in prop::collection::vec(0usize..6, 6),
        ) {
            // Random tree: node i>0 attaches to parent_seed[i] % i.
            let edges: Vec<(usize, usize)> = (1..n)
                .map(|i| (parent_seed[i - 1] % i, i))
                .collect();
            let q = JoinQuery {
                tables: (0..n).map(|i| format!("t{i}")).collect(),
                joins: edges
                    .iter()
                    .map(|&(a, b)| JoinEdge::new(a, "k", b, "k"))
                    .collect(),
                predicates: vec![],
            };
            let got: std::collections::HashSet<u64> =
                connected_subsets(&q).into_iter().map(|m| m.0).collect();
            for mask in 1..(1u64 << n) {
                prop_assert_eq!(
                    got.contains(&mask),
                    brute_connected(mask, n, &edges),
                    "mask {:b}", mask
                );
            }
        }
    }

    fn chain(n: usize) -> JoinQuery {
        JoinQuery {
            tables: (0..n).map(|i| format!("t{i}")).collect(),
            joins: (0..n - 1)
                .map(|i| JoinEdge::new(i, "id", i + 1, "fk"))
                .collect(),
            predicates: vec![Predicate::new(n - 1, "x", Region::eq(1))],
        }
    }

    fn star(n: usize) -> JoinQuery {
        JoinQuery {
            tables: (0..n).map(|i| format!("t{i}")).collect(),
            joins: (1..n).map(|i| JoinEdge::new(0, "id", i, "fk")).collect(),
            predicates: vec![],
        }
    }

    #[test]
    fn chain_subset_count() {
        // Connected subsets of a path with n nodes: n*(n+1)/2.
        for n in 2..=6 {
            let subs = connected_subsets(&chain(n));
            assert_eq!(subs.len(), n * (n + 1) / 2, "n={n}");
        }
    }

    #[test]
    fn star_subset_count() {
        // Connected subsets of a star with hub + k leaves:
        // k singletons for leaves + 2^k subsets containing the hub.
        for k in 1..=5 {
            let subs = connected_subsets(&star(k + 1));
            assert_eq!(subs.len(), k + (1 << k), "k={k}");
        }
    }

    #[test]
    fn subsets_sorted_by_size() {
        let subs = connected_subsets(&chain(5));
        for w in subs.windows(2) {
            assert!(w[0].count() <= w[1].count());
        }
    }

    #[test]
    fn projection_rebases_indices() {
        let q = chain(4);
        // Subset {1,2,3}.
        let mask = TableMask(0b1110);
        let sp = SubPlanQuery::project(&q, mask);
        assert_eq!(sp.query.tables, vec!["t1", "t2", "t3"]);
        assert_eq!(sp.query.joins.len(), 2);
        assert!(sp.query.is_acyclic());
        // Predicate was on table 3 → now position 2.
        assert_eq!(sp.query.predicates[0].table, 2);
    }

    #[test]
    fn singleton_projection() {
        let q = chain(3);
        let sp = SubPlanQuery::project(&q, TableMask::single(2));
        assert_eq!(sp.query.tables, vec!["t2"]);
        assert!(sp.query.joins.is_empty());
        assert_eq!(sp.query.predicates.len(), 1);
    }

    #[test]
    fn project_all_follows_enumeration_order() {
        let q = chain(4);
        let subs = SubPlanQuery::project_all(&q);
        let masks = connected_subsets(&q);
        assert_eq!(subs.len(), masks.len());
        for (sub, &mask) in subs.iter().zip(&masks) {
            assert_eq!(sub.mask, mask);
            assert!(sub.query.is_connected());
        }
    }

    #[test]
    fn mask_ops() {
        let a = TableMask::single(0).union(TableMask::single(2));
        assert!(a.contains(0) && a.contains(2) && !a.contains(1));
        assert_eq!(a.count(), 2);
        assert!(a.disjoint(TableMask::single(1)));
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![0, 2]);
    }
}
