//! Join queries: tables + acyclic equi-join edges + filter predicates.

use cardbench_support::hash::{bytes, fold, word, OFFSET};

use crate::predicate::{Predicate, Region};

/// FNV-1a over a name, with a terminator so `("ab","c")` and `("a","bc")`
/// differ.
#[inline]
fn name(h: u64, s: &str) -> u64 {
    fold(bytes(h, s.as_bytes()), 0xff)
}

/// One equi-join edge between two tables of a query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinEdge {
    /// Index of the left table in the query's table list.
    pub left: usize,
    /// Join column on the left table.
    pub left_col: String,
    /// Index of the right table.
    pub right: usize,
    /// Join column on the right table.
    pub right_col: String,
}

impl JoinEdge {
    /// Convenience constructor.
    pub fn new(
        left: usize,
        left_col: impl Into<String>,
        right: usize,
        right_col: impl Into<String>,
    ) -> Self {
        JoinEdge {
            left,
            left_col: left_col.into(),
            right,
            right_col: right_col.into(),
        }
    }

    /// True when the edge touches table position `t`.
    pub fn touches(&self, t: usize) -> bool {
        self.left == t || self.right == t
    }
}

/// A (multi-table) selection query: `SELECT COUNT(*) FROM tables WHERE
/// joins AND predicates`. Each table appears at most once (STATS-CEB and
/// JOB-LIGHT contain no self-joins) and the join graph is acyclic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JoinQuery {
    /// Distinct table names.
    pub tables: Vec<String>,
    /// Equi-join edges between table positions.
    pub joins: Vec<JoinEdge>,
    /// Filter predicates bound to table positions.
    pub predicates: Vec<Predicate>,
}

impl JoinQuery {
    /// Single-table query.
    pub fn single(table: impl Into<String>, predicates: Vec<Predicate>) -> Self {
        JoinQuery {
            tables: vec![table.into()],
            joins: vec![],
            predicates,
        }
    }

    /// Number of tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Predicates bound to table position `t`.
    pub fn predicates_of(&self, t: usize) -> impl Iterator<Item = &Predicate> {
        self.predicates.iter().filter(move |p| p.table == t)
    }

    /// True when the join graph connects all tables (spanning). A query
    /// must be connected to be plannable without cross products.
    pub fn is_connected(&self) -> bool {
        let n = self.tables.len();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(t) = stack.pop() {
            for e in &self.joins {
                if e.touches(t) {
                    let other = if e.left == t { e.right } else { e.left };
                    if !seen[other] {
                        seen[other] = true;
                        stack.push(other);
                    }
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// True when the join graph is acyclic (a join tree): exactly n-1 edges
    /// and connected.
    pub fn is_acyclic(&self) -> bool {
        self.joins.len() + 1 == self.tables.len() && self.is_connected()
    }

    /// A stable 64-bit canonical hash of the query's identity, invariant
    /// under reordering of tables, joins, and predicates. The
    /// true-cardinality cache and the feedback store key on it, and
    /// WJSample, NeuroCard^E and ChaosEst seed their per-call RNGs from it.
    pub fn canonical_hash(&self) -> u64 {
        self.shape_hash(|h, region| match region {
            Region::Range { lo, hi } => word(word(word(h, 1), *lo as u64), *hi as u64),
            Region::In(vals) => vals.iter().fold(word(h, 2), |h, &v| word(h, v as u64)),
        })
    }

    /// A stable 64-bit *template* hash: like [`JoinQuery::canonical_hash`]
    /// but invariant under the predicate literals. Two queries with the
    /// same tables, the same join edges, and predicates on the same
    /// `table.column` with the same region *kind* (range vs. in-list)
    /// collide here even when their constants differ — they are
    /// "structural siblings" for the execution-feedback cache, which
    /// transfers a multiplicative correction between them.
    pub fn template_hash(&self) -> u64 {
        self.shape_hash(|h, region| match region {
            Region::Range { .. } => word(h, 1),
            Region::In(_) => word(h, 2),
        })
    }

    /// The body both hashes share: per-component hashes of tables, joins
    /// and predicates (`region` folds in a predicate's region after its
    /// `table.column`), each list sorted and then chained, so
    /// permuted-but-equal queries agree.
    fn shape_hash(&self, region: impl Fn(u64, &Region) -> u64) -> u64 {
        let mut tabs: Vec<u64> = self.tables.iter().map(|t| name(OFFSET, t)).collect();
        tabs.sort_unstable();
        let mut joins: Vec<u64> = self
            .joins
            .iter()
            .map(|e| {
                let a = name(name(OFFSET, &self.tables[e.left]), &e.left_col);
                let b = name(name(OFFSET, &self.tables[e.right]), &e.right_col);
                // Undirected edge: side order must not matter.
                word(word(OFFSET, a.min(b)), a.max(b))
            })
            .collect();
        joins.sort_unstable();
        let mut preds: Vec<u64> = self
            .predicates
            .iter()
            .map(|p| {
                region(
                    name(name(OFFSET, &self.tables[p.table]), &p.column),
                    &p.region,
                )
            })
            .collect();
        preds.sort_unstable();
        tabs.iter()
            .chain(&joins)
            .chain(&preds)
            .fold(word(OFFSET, self.tables.len() as u64), |h, &v| word(h, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Region;

    fn chain3() -> JoinQuery {
        JoinQuery {
            tables: vec!["a".into(), "b".into(), "c".into()],
            joins: vec![
                JoinEdge::new(0, "id", 1, "aid"),
                JoinEdge::new(1, "id", 2, "bid"),
            ],
            predicates: vec![Predicate::new(1, "x", Region::eq(1))],
        }
    }

    #[test]
    fn connectivity() {
        assert!(chain3().is_connected());
        let mut q = chain3();
        q.joins.pop();
        assert!(!q.is_connected());
    }

    #[test]
    fn acyclicity() {
        assert!(chain3().is_acyclic());
        let mut q = chain3();
        q.joins.push(JoinEdge::new(0, "id", 2, "aid"));
        assert!(!q.is_acyclic());
    }

    #[test]
    fn canonical_hash_order_invariant() {
        let q1 = chain3();
        let mut q2 = chain3();
        q2.joins.reverse();
        assert_eq!(q1.canonical_hash(), q2.canonical_hash());
        // Edge direction must not matter either.
        let mut q3 = chain3();
        for e in &mut q3.joins {
            std::mem::swap(&mut e.left, &mut e.right);
            std::mem::swap(&mut e.left_col, &mut e.right_col);
        }
        assert_eq!(q1.canonical_hash(), q3.canonical_hash());
    }

    #[test]
    fn canonical_hash_distinguishes_queries() {
        let q1 = chain3();
        let mut q2 = chain3();
        q2.predicates[0].region = Region::eq(2);
        assert_ne!(q1.canonical_hash(), q2.canonical_hash());
        let mut q3 = chain3();
        q3.tables[2] = "d".into();
        assert_ne!(q1.canonical_hash(), q3.canonical_hash());
        let q4 = JoinQuery::single("a", vec![]);
        let q5 = JoinQuery::single("b", vec![]);
        assert_ne!(q4.canonical_hash(), q5.canonical_hash());
    }

    #[test]
    fn template_hash_ignores_literals_but_not_structure() {
        let q1 = chain3();
        // Same structure, different literal: canonical hashes differ,
        // template hashes agree.
        let mut q2 = chain3();
        q2.predicates[0].region = Region::eq(9);
        assert_ne!(q1.canonical_hash(), q2.canonical_hash());
        assert_eq!(q1.template_hash(), q2.template_hash());
        // Order-invariant like canonical_hash.
        let mut q3 = chain3();
        q3.joins.reverse();
        assert_eq!(q1.template_hash(), q3.template_hash());
        // Different predicate column: different template.
        let mut q4 = chain3();
        q4.predicates[0].column = "y".into();
        assert_ne!(q1.template_hash(), q4.template_hash());
        // Different region kind (range vs. in-list): different template.
        let mut q5 = chain3();
        q5.predicates[0].region = Region::In(vec![1]);
        assert_ne!(q1.template_hash(), q5.template_hash());
        // Different tables: different template.
        let mut q6 = chain3();
        q6.tables[2] = "d".into();
        assert_ne!(q1.template_hash(), q6.template_hash());
    }

    #[test]
    fn predicates_of_filters_by_table() {
        let q = chain3();
        assert_eq!(q.predicates_of(1).count(), 1);
        assert_eq!(q.predicates_of(0).count(), 0);
    }
}
