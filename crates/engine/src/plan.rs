//! Physical plan trees.

use cardbench_query::TableMask;

/// Base-table access method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScanMethod {
    /// Full sequential scan with predicate evaluation.
    Seq,
    /// Index range scan on the driving predicate plus residual filter.
    Index,
}

/// Join algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAlgo {
    /// Build a hash table on the inner (right) side, probe with the outer.
    Hash,
    /// Sort both sides on the join key and merge.
    Merge,
    /// Build a transient sorted index on the inner, probe per outer row.
    IndexNestedLoop,
}

/// A physical plan node. Every node records the sub-plan mask it covers
/// and the row estimate the optimizer planned with, so the same tree can
/// later be re-costed with true cardinalities (P-Error's PPC).
#[derive(Debug, Clone)]
pub enum PhysicalPlan {
    /// Base-table access.
    Scan {
        /// Position of the table within the query.
        table_pos: usize,
        /// Access method.
        method: ScanMethod,
        /// Mask covering just this table.
        mask: TableMask,
        /// Estimated output rows used at planning time.
        est_rows: f64,
    },
    /// Binary join.
    Join {
        /// Join algorithm.
        algo: JoinAlgo,
        /// Outer / probe side.
        left: Box<PhysicalPlan>,
        /// Inner / build side.
        right: Box<PhysicalPlan>,
        /// Index into the bound query's join list of the edge applied here.
        edge: usize,
        /// Mask covering the joined tables.
        mask: TableMask,
        /// Estimated output rows used at planning time.
        est_rows: f64,
    },
}

impl PhysicalPlan {
    /// Mask of tables covered by this node.
    pub fn mask(&self) -> TableMask {
        match self {
            PhysicalPlan::Scan { mask, .. } | PhysicalPlan::Join { mask, .. } => *mask,
        }
    }

    /// Estimated output rows recorded at planning time.
    pub fn est_rows(&self) -> f64 {
        match self {
            PhysicalPlan::Scan { est_rows, .. } | PhysicalPlan::Join { est_rows, .. } => *est_rows,
        }
    }

    /// Bit-exact structural equality: every field of every node must
    /// match, with `est_rows` compared by bit pattern (so `-0.0 != 0.0`
    /// and NaN payloads count). This is the equality the optimizer
    /// differential suite uses to prove the dense DP reproduces the
    /// reference DP's plans exactly.
    pub fn structurally_identical(&self, other: &PhysicalPlan) -> bool {
        match (self, other) {
            (
                PhysicalPlan::Scan {
                    table_pos: tp_a,
                    method: m_a,
                    mask: k_a,
                    est_rows: r_a,
                },
                PhysicalPlan::Scan {
                    table_pos: tp_b,
                    method: m_b,
                    mask: k_b,
                    est_rows: r_b,
                },
            ) => tp_a == tp_b && m_a == m_b && k_a == k_b && r_a.to_bits() == r_b.to_bits(),
            (
                PhysicalPlan::Join {
                    algo: a_a,
                    left: l_a,
                    right: r_a,
                    edge: e_a,
                    mask: k_a,
                    est_rows: er_a,
                },
                PhysicalPlan::Join {
                    algo: a_b,
                    left: l_b,
                    right: r_b,
                    edge: e_b,
                    mask: k_b,
                    est_rows: er_b,
                },
            ) => {
                a_a == a_b
                    && e_a == e_b
                    && k_a == k_b
                    && er_a.to_bits() == er_b.to_bits()
                    && l_a.structurally_identical(l_b)
                    && r_a.structurally_identical(r_b)
            }
            _ => false,
        }
    }

    /// Number of join nodes.
    pub fn join_count(&self) -> usize {
        match self {
            PhysicalPlan::Scan { .. } => 0,
            PhysicalPlan::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
        }
    }

    /// Visits nodes bottom-up (children before parents).
    pub fn visit<'a>(&'a self, f: &mut impl FnMut(&'a PhysicalPlan)) {
        if let PhysicalPlan::Join { left, right, .. } = self {
            left.visit(f);
            right.visit(f);
        }
        f(self);
    }

    /// Pretty-prints the tree, one node per line, each followed by
    /// `annotate` of that node: the Figure-2 case study's estimated and
    /// true rows, or [`explain`](fn@crate::explain)'s rows and subtree cost.
    pub fn render(&self, tables: &[String], annotate: &impl Fn(&PhysicalPlan) -> String) -> String {
        let mut out = String::new();
        self.render_into(tables, annotate, 0, &mut out);
        out
    }

    fn render_into(
        &self,
        tables: &[String],
        annotate: &impl Fn(&PhysicalPlan) -> String,
        depth: usize,
        out: &mut String,
    ) {
        let pad = "  ".repeat(depth);
        match self {
            PhysicalPlan::Scan {
                table_pos, method, ..
            } => {
                out.push_str(&format!(
                    "{pad}{method:?}Scan {} {}\n",
                    tables[*table_pos],
                    annotate(self)
                ));
            }
            PhysicalPlan::Join {
                algo, left, right, ..
            } => {
                out.push_str(&format!("{pad}{algo:?}Join {}\n", annotate(self)));
                left.render_into(tables, annotate, depth + 1, out);
                right.render_into(tables, annotate, depth + 1, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PhysicalPlan {
        PhysicalPlan::Join {
            algo: JoinAlgo::Hash,
            left: Box::new(PhysicalPlan::Scan {
                table_pos: 0,
                method: ScanMethod::Seq,
                mask: TableMask::single(0),
                est_rows: 10.0,
            }),
            right: Box::new(PhysicalPlan::Scan {
                table_pos: 1,
                method: ScanMethod::Index,
                mask: TableMask::single(1),
                est_rows: 5.0,
            }),
            edge: 0,
            mask: TableMask::full(2),
            est_rows: 50.0,
        }
    }

    #[test]
    fn join_count_and_mask() {
        let p = sample();
        assert_eq!(p.join_count(), 1);
        assert_eq!(p.mask(), TableMask::full(2));
        assert_eq!(p.est_rows(), 50.0);
    }

    #[test]
    fn visit_bottom_up() {
        let p = sample();
        let mut order = Vec::new();
        p.visit(&mut |n| order.push(n.mask().count()));
        assert_eq!(order, vec![1, 1, 2]);
    }

    #[test]
    fn structural_identity_is_bit_exact() {
        let p = sample();
        assert!(p.structurally_identical(&p.clone()));
        // Flipping any field breaks identity.
        let mut q = sample();
        if let PhysicalPlan::Join { algo, .. } = &mut q {
            *algo = JoinAlgo::Merge;
        }
        assert!(!p.structurally_identical(&q));
        let mut r = sample();
        if let PhysicalPlan::Join { est_rows, .. } = &mut r {
            *est_rows *= -0.0; // same value class, different bits
        }
        assert!(!p.structurally_identical(&r));
        // A scan never equals a join.
        if let PhysicalPlan::Join { left, .. } = &p {
            assert!(!p.structurally_identical(left));
        }
    }

    #[test]
    fn render_contains_tables() {
        let p = sample();
        let s = p.render(&["a".into(), "b".into()], &|n| {
            format!("[{}]", n.mask().count())
        });
        assert!(s.contains("SeqScan a [1]"));
        assert!(s.contains("IndexScan b [1]"));
        assert!(s.contains("HashJoin [2]"));
    }
}
