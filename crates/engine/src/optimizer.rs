//! Cost-based join-order optimization with injected cardinalities.
//!
//! This is the analogue of the paper's PostgreSQL integration: the DP
//! enumeration (DPsub over connected subgraphs) consults a [`CardMap`] —
//! cardinalities for every sub-plan query, produced by whichever CardEst
//! method is under test — and picks join order, join algorithms, and scan
//! methods with the [`CostModel`]. The estimator therefore fully controls
//! plan choice, and nothing else about the engine changes between methods.
//!
//! ## Two-phase search
//!
//! Plan search is split into a cardinality-independent *shape* phase and a
//! cardinality-dependent *DP* phase. The shape — connected-subset lattice,
//! partition list with resolved connecting edges, cross-product bounds —
//! is precomputed once per join structure as a [`JoinTopology`] (cached on
//! the [`Database`]). The DP ([`optimize_topo`]) then replays over dense
//! arrays indexed by the topology: each cell stores `(cost, split, algo,
//! scan)` as plain words, and the winning [`PhysicalPlan`] tree is
//! reconstructed exactly once at the end — no per-cell hashing, no subtree
//! cloning. [`optimize_reference`] keeps the original single-pass
//! `HashMap` DP as the differential-testing and benchmarking baseline.
//!
//! ## Deterministic tie-breaking
//!
//! When two candidates for the same subset have exactly equal cost, the DP
//! keeps the one with the **lower left-child mask**, then the **lower join
//! algorithm rank** (`Hash < Merge < IndexNestedLoop`). Scan ties keep
//! `Seq`. Plan choice is therefore a pure function of `(topology, cards,
//! cost model)`, independent of partition enumeration order — the dense
//! rewrite relies on this, `tests/optimizer_differential.rs` proves both
//! implementations agree bit-for-bit, and `tie_break_is_deterministic`
//! below pins the rule itself.

use std::collections::HashMap;

use cardbench_query::{connected_subsets, BoundQuery, JoinQuery, TableMask};

use crate::cost::CostModel;
use crate::database::Database;
use crate::plan::{JoinAlgo, PhysicalPlan, ScanMethod};
use crate::topology::{connecting_edge, JoinTopology};

/// Why [`clamp_row_est`] had to intervene on an estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClampKind {
    /// NaN or ±infinity.
    NonFinite,
    /// Negative, zero, or subnormal (no usable magnitude).
    Degenerate,
    /// Finite but above the given upper bound (e.g. the cross-product
    /// cardinality of the joined tables).
    TooLarge,
}

/// PostgreSQL-style row-estimate sanitizer (`clamp_row_est`): maps *any*
/// `f64` into `[1.0, upper]` so a misbehaving estimator can never push
/// NaN/±inf/negative/zero rows into the cost model. Returns the clamped
/// value plus what, if anything, was wrong with the input.
///
/// Rules: NaN and -inf have no usable magnitude and become `1.0`; +inf
/// clamps to `upper`; negatives, zero, and subnormals become `1.0`;
/// finite values above `upper` clamp down to it. `upper` itself is
/// sanitized to at least `1.0` (a NaN/non-positive bound acts as "no
/// bound beyond the 1.0 floor").
pub fn clamp_row_est(rows: f64, upper: f64) -> (f64, Option<ClampKind>) {
    let upper = if upper.is_finite() && upper >= 1.0 {
        upper
    } else if upper == f64::INFINITY {
        f64::MAX
    } else {
        1.0
    };
    if rows.is_nan() || rows == f64::NEG_INFINITY {
        return (1.0, Some(ClampKind::NonFinite));
    }
    if rows == f64::INFINITY {
        return (upper, Some(ClampKind::NonFinite));
    }
    if rows <= 0.0 || !rows.is_normal() {
        return (1.0, Some(ClampKind::Degenerate));
    }
    if rows > upper {
        return (upper, Some(ClampKind::TooLarge));
    }
    if rows < 1.0 {
        // Sub-row estimates are ordinary (a selective predicate), not a
        // fault: clamp like PostgreSQL without reporting a kind.
        return (1.0, None);
    }
    (rows, None)
}

/// Cardinalities for every connected sub-plan of one query, keyed by
/// table mask. This is what gets "injected into the optimizer".
///
/// Every insert passes through [`clamp_row_est`], so whatever a
/// misbehaving estimator produced, the optimizer only ever sees values
/// in `[1.0, bound]`; [`CardMap::clamped`] counts the interventions.
#[derive(Debug, Clone, Default)]
pub struct CardMap {
    rows: HashMap<u64, f64>,
    clamped: u64,
}

impl CardMap {
    /// Empty map.
    pub fn new() -> CardMap {
        CardMap::default()
    }

    /// Sets the estimated rows of a sub-plan. The value is sanitized via
    /// [`clamp_row_est`] with no upper bound beyond `f64::MAX`.
    pub fn insert(&mut self, mask: TableMask, rows: f64) {
        self.insert_bounded(mask, rows, f64::MAX);
    }

    /// Sets the estimated rows of a sub-plan, clamped into
    /// `[1.0, upper]` (pass the cross-product bound of the sub-plan's
    /// tables for the PostgreSQL-faithful behaviour).
    pub fn insert_bounded(&mut self, mask: TableMask, rows: f64, upper: f64) {
        let (v, kind) = clamp_row_est(rows, upper);
        if kind.is_some() {
            self.clamped += 1;
        }
        self.rows.insert(mask.0, v);
    }

    /// Estimated rows of a sub-plan (1.0 when absent, like PostgreSQL's
    /// clamp).
    pub fn rows(&self, mask: TableMask) -> f64 {
        self.rows.get(&mask.0).copied().unwrap_or(1.0)
    }

    /// The map re-keyed by `topo`'s dense index: `view[i]` is the
    /// estimate for `topo.masks()[i]`, `1.0` where absent (same default
    /// as [`CardMap::rows`]). The DP inner loop does three array loads
    /// per candidate against this instead of three hash probes.
    pub fn dense_view(&self, topo: &JoinTopology) -> Vec<f64> {
        topo.masks().iter().map(|&m| self.rows(m)).collect()
    }

    /// How many inserted estimates required clamping (NaN/±inf,
    /// degenerate, or above the bound).
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no estimates are present.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Optimizes `query` with the injected `cards`, returning the cheapest
/// physical plan under `cost`. `bound` must be the binding of `query`.
pub fn optimize(
    query: &JoinQuery,
    bound: &BoundQuery,
    db: &Database,
    cards: &CardMap,
    cost: &CostModel,
) -> PhysicalPlan {
    optimize_with(query, bound, db, cards, cost, false)
}

/// Like [`optimize`], but restricted to left-deep join trees when
/// `left_deep` is set (the classic restricted search space; used by the
/// `optimizer_shapes` ablation to quantify what bushy DP buys). The
/// left-deep search consumes the same cached partition list as the bushy
/// one, filtered to single-table splits — no re-enumeration, no wasted
/// `connecting_edge` probes on disconnected partitions.
pub fn optimize_with(
    query: &JoinQuery,
    bound: &BoundQuery,
    db: &Database,
    cards: &CardMap,
    cost: &CostModel,
    left_deep: bool,
) -> PhysicalPlan {
    let topo = db.topology(query, bound);
    let dense = cards.dense_view(&topo);
    optimize_topo(&topo, bound, db, &dense, cost, left_deep).1
}

/// Like [`optimize`], but also returns the DP's own cost of the winning
/// plan (the cost under the *injected* cardinalities), sparing callers a
/// [`plan_cost`] recomputation.
pub fn optimize_costed(
    query: &JoinQuery,
    bound: &BoundQuery,
    db: &Database,
    cards: &CardMap,
    cost: &CostModel,
) -> (f64, PhysicalPlan) {
    let topo = db.topology(query, bound);
    let dense = cards.dense_view(&topo);
    optimize_topo(&topo, bound, db, &dense, cost, false)
}

/// Sentinel child index marking a DP cell as a scan node.
const SCAN_CHILD: u32 = u32::MAX;

/// One dense DP cell: the winning candidate for one connected subset,
/// as plain words. The plan tree is only materialized once, from the
/// root's cell, after the whole table is filled.
#[derive(Debug, Clone, Copy)]
struct DpCell {
    cost: f64,
    /// Dense index of the left child, or [`SCAN_CHILD`] for a scan.
    left: u32,
    /// Dense index of the right child (unused for scans).
    right: u32,
    /// Edge index into `bound.joins` (unused for scans).
    edge: u32,
    algo: JoinAlgo,
    scan: ScanMethod,
}

/// Rank of a join algorithm in the tie-break order (see module docs).
#[inline]
fn algo_rank(algo: JoinAlgo) -> u8 {
    match algo {
        JoinAlgo::Hash => 0,
        JoinAlgo::Merge => 1,
        JoinAlgo::IndexNestedLoop => 2,
    }
}

/// The cardinality-dependent half of plan search: a dense DPsub over a
/// precomputed [`JoinTopology`]. `dense` must be a per-dense-index row
/// view (see [`CardMap::dense_view`]) aligned with `topo.masks()`.
/// Returns the winning plan and its cost under `dense`.
///
/// Candidates, float operation order, and the tie-break are identical to
/// [`optimize_reference`]; the differential suite asserts bit-equal
/// output.
pub fn optimize_topo(
    topo: &JoinTopology,
    bound: &BoundQuery,
    db: &Database,
    dense: &[f64],
    cost: &CostModel,
    left_deep: bool,
) -> (f64, PhysicalPlan) {
    let n = topo.table_count();
    let _sp = cardbench_obs::span_with("optimize", "plan", || format!("{n} tables"));
    let masks = topo.masks();
    debug_assert_eq!(dense.len(), masks.len());
    let mut cells: Vec<DpCell> = Vec::with_capacity(masks.len());

    // Singletons come first in the lattice (ascending size, then mask),
    // so dense index `i < n` is exactly table position `i`.
    for pos in 0..n {
        debug_assert_eq!(masks[pos], TableMask::single(pos));
        let table_rows = db.row_count(bound.tables[pos].id) as f64;
        let est = dense[pos];
        let seq = cost.scan_cost(ScanMethod::Seq, table_rows, est);
        let mut scan = ScanMethod::Seq;
        let mut c = seq;
        if !bound.tables[pos].predicates.is_empty() {
            let idx = cost.scan_cost(ScanMethod::Index, table_rows, est);
            if idx < seq {
                scan = ScanMethod::Index;
                c = idx;
            }
        }
        cells.push(DpCell {
            cost: c,
            left: SCAN_CHILD,
            right: SCAN_CHILD,
            edge: 0,
            algo: JoinAlgo::Hash,
            scan,
        });
    }

    // Composites in ascending size: every child cell is already filled.
    for i in n..masks.len() {
        let out_rows = dense[i];
        // (cost, (left mask, algo rank)) of the incumbent, for ties.
        let mut best: Option<(f64, (u64, u8), DpCell)> = None;
        for p in topo.partitions_of(i) {
            if left_deep && !p.single_side {
                continue;
            }
            let (i1, i2) = (p.s1 as usize, p.s2 as usize);
            let (c1, c2) = (cells[i1].cost, cells[i2].cost);
            let (r1, r2) = (dense[i1], dense[i2]);
            for (left, right, lc, rc, lr, rr) in
                [(i1, i2, c1, c2, r1, r2), (i2, i1, c2, c1, r2, r1)]
            {
                for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::IndexNestedLoop] {
                    let total = lc + rc + cost.join_cost(algo, lr, rr, out_rows);
                    let key = (masks[left].0, algo_rank(algo));
                    let wins = match &best {
                        None => true,
                        Some((bc, bk, _)) => total < *bc || (total == *bc && key < *bk),
                    };
                    if wins {
                        best = Some((
                            total,
                            key,
                            DpCell {
                                cost: total,
                                left: left as u32,
                                right: right as u32,
                                edge: p.edge,
                                algo,
                                scan: ScanMethod::Seq,
                            },
                        ));
                    }
                }
            }
        }
        let (_, _, cell) = best.expect("connected subset must admit a connected partition");
        cells.push(cell);
    }

    let root = masks.len() - 1;
    assert_eq!(
        masks[root],
        TableMask::full(n),
        "connected query must have a full plan"
    );
    (cells[root].cost, rebuild(topo, &cells, dense, root))
}

/// Materializes the winning plan tree from the filled DP table — the one
/// and only tree construction per optimize call.
fn rebuild(topo: &JoinTopology, cells: &[DpCell], dense: &[f64], i: usize) -> PhysicalPlan {
    let cell = &cells[i];
    let mask = topo.masks()[i];
    if cell.left == SCAN_CHILD {
        PhysicalPlan::Scan {
            table_pos: mask.0.trailing_zeros() as usize,
            method: cell.scan,
            mask,
            est_rows: dense[i],
        }
    } else {
        PhysicalPlan::Join {
            algo: cell.algo,
            left: Box::new(rebuild(topo, cells, dense, cell.left as usize)),
            right: Box::new(rebuild(topo, cells, dense, cell.right as usize)),
            edge: cell.edge as usize,
            mask,
            est_rows: dense[i],
        }
    }
}

/// The pre-topology optimizer: single-pass `HashMap` DP that re-enumerates
/// `connected_subsets` and re-probes `connecting_edge` per call, cloning
/// partial plans at every cell. Kept as the ground truth for
/// `tests/optimizer_differential.rs` (bit-identical plans and costs), the
/// `metrics` P-Error test and the benchmark's `plan_search` first-pass
/// check. Not part of the public surface.
#[doc(hidden)]
pub fn optimize_reference(
    query: &JoinQuery,
    bound: &BoundQuery,
    db: &Database,
    cards: &CardMap,
    cost: &CostModel,
    left_deep: bool,
) -> (f64, PhysicalPlan) {
    let n = query.table_count();
    assert!((1..=64).contains(&n));
    let mut best: HashMap<u64, (f64, PhysicalPlan)> = HashMap::new();

    // Base relations: choose the cheaper scan method per table.
    for pos in 0..n {
        let mask = TableMask::single(pos);
        let table_rows = db.row_count(bound.tables[pos].id) as f64;
        let est = cards.rows(mask);
        let has_preds = !bound.tables[pos].predicates.is_empty();
        let seq = cost.scan_cost(ScanMethod::Seq, table_rows, est);
        let mut method = ScanMethod::Seq;
        let mut c = seq;
        if has_preds {
            let idx = cost.scan_cost(ScanMethod::Index, table_rows, est);
            if idx < seq {
                method = ScanMethod::Index;
                c = idx;
            }
        }
        best.insert(
            mask.0,
            (
                c,
                PhysicalPlan::Scan {
                    table_pos: pos,
                    method,
                    mask,
                    est_rows: est,
                },
            ),
        );
    }

    // DPsub over connected masks in ascending size.
    for mask in connected_subsets(query) {
        if mask.count() < 2 {
            continue;
        }
        let m = mask.0;
        let out_rows = cards.rows(mask);
        let mut best_here: Option<(f64, (u64, u8), PhysicalPlan)> = None;
        // Enumerate proper submasks of m.
        let mut s1 = (m - 1) & m;
        while s1 > 0 {
            let s2 = m & !s1;
            // Visit each unordered partition once; roles are explored
            // explicitly below.
            if s1 < s2 {
                s1 = (s1 - 1) & m;
                continue;
            }
            // Left-deep restriction: one side must be a base table.
            if left_deep && s1.count_ones() > 1 && s2.count_ones() > 1 {
                s1 = (s1 - 1) & m;
                continue;
            }
            if let (Some((c1, p1)), Some((c2, p2))) =
                (best.get(&s1).cloned(), best.get(&s2).cloned())
            {
                if let Some(edge) = connecting_edge(bound, TableMask(s1), TableMask(s2)) {
                    let r1 = cards.rows(TableMask(s1));
                    let r2 = cards.rows(TableMask(s2));
                    for (left, right, lc, rc, lr, rr) in
                        [(&p1, &p2, c1, c2, r1, r2), (&p2, &p1, c2, c1, r2, r1)]
                    {
                        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::IndexNestedLoop] {
                            let total = lc + rc + cost.join_cost(algo, lr, rr, out_rows);
                            let key = (left.mask().0, algo_rank(algo));
                            let wins = match &best_here {
                                None => true,
                                Some((bc, bk, _)) => total < *bc || (total == *bc && key < *bk),
                            };
                            if wins {
                                best_here = Some((
                                    total,
                                    key,
                                    PhysicalPlan::Join {
                                        algo,
                                        left: Box::new(left.clone()),
                                        right: Box::new(right.clone()),
                                        edge,
                                        mask,
                                        est_rows: out_rows,
                                    },
                                ));
                            }
                        }
                    }
                }
            }
            s1 = (s1 - 1) & m;
        }
        if let Some((c, _, p)) = best_here {
            best.insert(m, (c, p));
        }
    }

    best.remove(&TableMask::full(n).0)
        .expect("connected query must have a full plan")
}

/// Total plan cost when every node's input/output rows are given by
/// `rows_of` — the PPC primitive behind P-Error: cost the *structure* of a
/// plan with arbitrary (e.g. true) cardinalities.
pub fn plan_cost(
    plan: &PhysicalPlan,
    db: &Database,
    bound: &BoundQuery,
    cost: &CostModel,
    rows_of: &impl Fn(TableMask) -> f64,
) -> f64 {
    match plan {
        PhysicalPlan::Scan {
            table_pos,
            method,
            mask,
            ..
        } => {
            let table_rows = db.row_count(bound.tables[*table_pos].id) as f64;
            cost.scan_cost(*method, table_rows, rows_of(*mask))
        }
        PhysicalPlan::Join {
            algo,
            left,
            right,
            mask,
            ..
        } => {
            let lc = plan_cost(left, db, bound, cost, rows_of);
            let rc = plan_cost(right, db, bound, cost, rows_of);
            lc + rc
                + cost.join_cost(
                    *algo,
                    rows_of(left.mask()),
                    rows_of(right.mask()),
                    rows_of(*mask),
                )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_query::{JoinEdge, Predicate, Region, SubPlanQuery};
    use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

    fn db() -> Database {
        let mut cat = Catalog::new();
        for (name, rows) in [("a", 1000usize), ("b", 100), ("c", 10)] {
            let key: Vec<i64> = (0..rows as i64).collect();
            let v: Vec<i64> = (0..rows as i64).map(|i| i % 10).collect();
            cat.add_table(
                Table::from_columns(
                    TableSchema::new(
                        name,
                        vec![
                            ColumnDef::new("k", ColumnKind::ForeignKey),
                            ColumnDef::new("v", ColumnKind::Numeric),
                        ],
                    ),
                    vec![Column::from_values(key), Column::from_values(v)],
                )
                .unwrap(),
            );
        }
        Database::new(cat)
    }

    fn chain_query() -> JoinQuery {
        JoinQuery {
            tables: vec!["a".into(), "b".into(), "c".into()],
            joins: vec![JoinEdge::new(0, "k", 1, "k"), JoinEdge::new(1, "k", 2, "k")],
            predicates: vec![Predicate::new(0, "v", Region::eq(3))],
        }
    }

    fn cards_for(query: &JoinQuery, f: impl Fn(TableMask) -> f64) -> CardMap {
        let mut m = CardMap::new();
        for mask in connected_subsets(query) {
            m.insert(mask, f(mask));
        }
        m
    }

    #[test]
    fn produces_full_plan() {
        let db = db();
        let q = chain_query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let cards = cards_for(&q, |m| 10.0 * m.count() as f64);
        let plan = optimize(&q, &bound, &db, &cards, &CostModel::default());
        assert_eq!(plan.mask(), TableMask::full(3));
        assert_eq!(plan.join_count(), 2);
    }

    #[test]
    fn join_order_follows_estimates() {
        let db = db();
        let q = chain_query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        // Make a⋈b look enormous and b⋈c tiny: the optimizer should join
        // b⋈c first.
        let ab = TableMask::single(0).union(TableMask::single(1));
        let bc = TableMask::single(1).union(TableMask::single(2));
        let cards = cards_for(&q, |m| {
            if m == ab {
                1_000_000.0
            } else if m == bc {
                2.0
            } else {
                50.0
            }
        });
        let plan = optimize(&q, &bound, &db, &cards, &CostModel::default());
        // The first join applied (deepest) must cover bc, not ab.
        let mut deepest: Option<TableMask> = None;
        plan.visit(&mut |n| {
            if let PhysicalPlan::Join { mask, .. } = n {
                if deepest.is_none() {
                    deepest = Some(*mask);
                }
            }
        });
        assert_eq!(deepest.unwrap(), bc);
    }

    #[test]
    fn selective_scan_uses_index() {
        let db = db();
        let q = chain_query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let cards = cards_for(&q, |m| {
            if m == TableMask::single(0) {
                2.0
            } else {
                500.0
            }
        });
        let plan = optimize(&q, &bound, &db, &cards, &CostModel::default());
        let mut found = None;
        plan.visit(&mut |n| {
            if let PhysicalPlan::Scan {
                table_pos: 0,
                method,
                ..
            } = n
            {
                found = Some(*method);
            }
        });
        assert_eq!(found, Some(ScanMethod::Index));
    }

    #[test]
    fn dp_never_worse_than_left_deep_under_own_cost() {
        let db = db();
        let q = chain_query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let cards = cards_for(&q, |m| 100.0 * m.count() as f64);
        let cm = CostModel::default();
        let plan = optimize(&q, &bound, &db, &cards, &cm);
        let dp_cost = plan_cost(plan_ref(&plan), &db, &bound, &cm, &|m| cards.rows(m));
        // Left-deep a⋈b then ⋈c with hash joins as a baseline.
        let scan = |pos: usize| PhysicalPlan::Scan {
            table_pos: pos,
            method: ScanMethod::Seq,
            mask: TableMask::single(pos),
            est_rows: cards.rows(TableMask::single(pos)),
        };
        let ab = PhysicalPlan::Join {
            algo: JoinAlgo::Hash,
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            edge: 0,
            mask: TableMask(0b011),
            est_rows: cards.rows(TableMask(0b011)),
        };
        let abc = PhysicalPlan::Join {
            algo: JoinAlgo::Hash,
            left: Box::new(ab),
            right: Box::new(scan(2)),
            edge: 1,
            mask: TableMask::full(3),
            est_rows: cards.rows(TableMask::full(3)),
        };
        let naive_cost = plan_cost(&abc, &db, &bound, &cm, &|m| cards.rows(m));
        assert!(dp_cost <= naive_cost + 1e-9);
    }

    fn plan_ref(p: &PhysicalPlan) -> &PhysicalPlan {
        p
    }

    #[test]
    fn subplan_projection_matches_masks() {
        // Sanity: every connected subset projects to a valid sub-query.
        let q = chain_query();
        for mask in connected_subsets(&q) {
            let sp = SubPlanQuery::project(&q, mask);
            assert!(sp.query.is_connected());
        }
    }

    #[test]
    fn dense_matches_reference_on_chain() {
        let db = db();
        let q = chain_query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let cm = CostModel::default();
        let cards = cards_for(&q, |m| 7.0 * m.0 as f64);
        for left_deep in [false, true] {
            let new = optimize_with(&q, &bound, &db, &cards, &cm, left_deep);
            let (ref_cost, ref_plan) = optimize_reference(&q, &bound, &db, &cards, &cm, left_deep);
            assert!(
                new.structurally_identical(&ref_plan),
                "left_deep={left_deep}"
            );
            let (new_cost, _) = {
                let topo = db.topology(&q, &bound);
                let dense = cards.dense_view(&topo);
                optimize_topo(&topo, &bound, &db, &dense, &cm, left_deep)
            };
            assert_eq!(new_cost.to_bits(), ref_cost.to_bits());
        }
    }

    #[test]
    fn optimize_costed_cost_matches_plan_cost() {
        let db = db();
        let q = chain_query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let cm = CostModel::default();
        let cards = cards_for(&q, |m| 3.0 + m.0 as f64);
        let (c, plan) = optimize_costed(&q, &bound, &db, &cards, &cm);
        let recosted = plan_cost(&plan, &db, &bound, &cm, &|m| cards.rows(m));
        assert!((c - recosted).abs() <= 1e-9 * recosted.abs().max(1.0));
    }

    /// Pins the documented tie-break: with two identical tables and
    /// identical cardinalities everywhere, every role assignment ties on
    /// cost, and the winner must be the lower left-child mask (table 0 on
    /// the left), with the reference DP agreeing exactly.
    #[test]
    fn tie_break_is_deterministic() {
        let mut cat = Catalog::new();
        for name in ["x", "y"] {
            cat.add_table(
                Table::from_columns(
                    TableSchema::new(name, vec![ColumnDef::new("k", ColumnKind::ForeignKey)]),
                    vec![Column::from_values((0..20).collect::<Vec<i64>>())],
                )
                .unwrap(),
            );
        }
        let db = Database::new(cat);
        let q = JoinQuery {
            tables: vec!["x".into(), "y".into()],
            joins: vec![JoinEdge::new(0, "k", 1, "k")],
            predicates: vec![],
        };
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let cards = cards_for(&q, |_| 20.0);
        let cm = CostModel::default();
        let plan = optimize(&q, &bound, &db, &cards, &cm);
        match &plan {
            PhysicalPlan::Join { left, .. } => assert_eq!(
                left.mask(),
                TableMask::single(0),
                "cost tie must resolve to the lower left-child mask"
            ),
            other => panic!("expected a join, got {other:?}"),
        }
        let (_, ref_plan) = optimize_reference(&q, &bound, &db, &cards, &cm, false);
        assert!(plan.structurally_identical(&ref_plan));
    }
}

#[cfg(test)]
mod left_deep_tests {
    use super::*;
    use crate::plan::PhysicalPlan;
    use cardbench_query::{JoinEdge, JoinQuery, Predicate, Region};
    use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

    fn db4() -> Database {
        let mut cat = Catalog::new();
        for name in ["a", "b", "c", "d"] {
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
                        Column::from_values((0..50).map(|i| i % 10).collect()),
                        Column::from_values((0..50).collect()),
                    ],
                )
                .unwrap(),
            );
        }
        Database::new(cat)
    }

    fn chain4() -> JoinQuery {
        JoinQuery {
            tables: vec!["a".into(), "b".into(), "c".into(), "d".into()],
            joins: vec![
                JoinEdge::new(0, "k", 1, "k"),
                JoinEdge::new(1, "k", 2, "k"),
                JoinEdge::new(2, "k", 3, "k"),
            ],
            predicates: vec![Predicate::new(0, "v", Region::le(25))],
        }
    }

    fn is_left_deep(p: &PhysicalPlan) -> bool {
        match p {
            PhysicalPlan::Scan { .. } => true,
            PhysicalPlan::Join { left, right, .. } => {
                let one_side_base = matches!(**left, PhysicalPlan::Scan { .. })
                    || matches!(**right, PhysicalPlan::Scan { .. });
                one_side_base && is_left_deep(left) && is_left_deep(right)
            }
        }
    }

    #[test]
    fn left_deep_mode_produces_left_deep_plans() {
        let db = db4();
        let q = chain4();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let mut cards = CardMap::new();
        for (i, mask) in cardbench_query::connected_subsets(&q)
            .into_iter()
            .enumerate()
        {
            cards.insert(mask, (i as f64 + 1.0) * 10.0);
        }
        let plan = optimize_with(&q, &bound, &db, &cards, &CostModel::default(), true);
        assert!(is_left_deep(&plan));
        assert_eq!(plan.join_count(), 3);
    }

    #[test]
    fn bushy_dp_never_costlier_than_left_deep() {
        let db = db4();
        let q = chain4();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let mut cards = CardMap::new();
        // Make the middle pair huge so a bushy (ab)(cd) shape wins.
        for mask in cardbench_query::connected_subsets(&q) {
            let rows = if mask.0 == 0b0110 { 1e9 } else { 100.0 };
            cards.insert(mask, rows);
        }
        let cm = CostModel::default();
        let bushy = optimize_with(&q, &bound, &db, &cards, &cm, false);
        let ld = optimize_with(&q, &bound, &db, &cards, &cm, true);
        let cost_of = |p: &PhysicalPlan| plan_cost(p, &db, &bound, &cm, &|m| cards.rows(m));
        assert!(cost_of(&bushy) <= cost_of(&ld) + 1e-9);
    }

    #[test]
    fn clamp_row_est_handles_every_pathology() {
        let b = 1e6;
        assert_eq!(
            clamp_row_est(f64::NAN, b),
            (1.0, Some(ClampKind::NonFinite))
        );
        assert_eq!(
            clamp_row_est(f64::INFINITY, b),
            (b, Some(ClampKind::NonFinite))
        );
        assert_eq!(
            clamp_row_est(f64::NEG_INFINITY, b),
            (1.0, Some(ClampKind::NonFinite))
        );
        assert_eq!(clamp_row_est(-5.0, b), (1.0, Some(ClampKind::Degenerate)));
        assert_eq!(clamp_row_est(0.0, b), (1.0, Some(ClampKind::Degenerate)));
        assert_eq!(clamp_row_est(-0.0, b), (1.0, Some(ClampKind::Degenerate)));
        assert_eq!(
            clamp_row_est(f64::MIN_POSITIVE / 2.0, b),
            (1.0, Some(ClampKind::Degenerate)),
            "subnormals are degenerate"
        );
        assert_eq!(clamp_row_est(2e6, b), (b, Some(ClampKind::TooLarge)));
        assert_eq!(clamp_row_est(0.25, b), (1.0, None));
        assert_eq!(clamp_row_est(42.0, b), (42.0, None));
    }

    #[test]
    fn clamp_row_est_tolerates_bad_bounds() {
        // A NaN/zero/negative upper bound falls back to 1.0; an infinite
        // one falls back to f64::MAX. The result must stay in range.
        for bad in [f64::NAN, 0.0, -3.0, f64::NEG_INFINITY] {
            let (v, _) = clamp_row_est(500.0, bad);
            assert_eq!(v, 1.0);
        }
        let (v, kind) = clamp_row_est(f64::INFINITY, f64::INFINITY);
        assert_eq!(v, f64::MAX);
        assert_eq!(kind, Some(ClampKind::NonFinite));
    }

    #[test]
    fn clamp_row_est_total_over_random_f64_bits() {
        use cardbench_support::rand::rngs::StdRng;
        use cardbench_support::rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let bound = 1e12;
        for _ in 0..20_000 {
            let rows = f64::from_bits(rng.gen_range(0..u64::MAX));
            let (v, _) = clamp_row_est(rows, bound);
            assert!(
                v.is_finite() && (1.0..=bound).contains(&v),
                "clamp({rows:?}) escaped [1, bound]: {v:?}"
            );
        }
    }

    #[test]
    fn insert_bounded_counts_clamps() {
        let mut m = CardMap::new();
        m.insert_bounded(TableMask::single(0), 50.0, 1000.0);
        assert_eq!(m.clamped(), 0);
        m.insert_bounded(TableMask::single(1), f64::NAN, 1000.0);
        m.insert_bounded(TableMask(0b11), f64::INFINITY, 1000.0);
        assert_eq!(m.clamped(), 2);
        assert_eq!(m.rows(TableMask::single(1)), 1.0);
        assert_eq!(m.rows(TableMask(0b11)), 1000.0);
        // Plain insert still sanitizes but with no cross-product bound.
        m.insert(TableMask(0b111), -1.0);
        assert_eq!(m.clamped(), 3);
        assert_eq!(m.rows(TableMask(0b111)), 1.0);
    }
}
