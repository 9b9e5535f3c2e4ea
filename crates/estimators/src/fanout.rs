//! The fanout join-estimation framework shared by the data-driven
//! estimators (BayesCard / DeepDB / FLAT) and the join-uniformity helper
//! used by the traditional single-table methods.
//!
//! Divide and conquer: each table has its own model over attributes +
//! fanout columns; an acyclic join's cardinality is assembled along the
//! join tree as
//!
//! `card = |T_root| · Π_t E_t[ 1(filters_t) · Π_{child edges} fanout ]`
//!
//! assuming tables are independent given the join structure — the
//! accuracy/efficiency trade-off the paper credits for these methods'
//! wins (O1) and blames for their error growth with join count (O4).

use std::hash::{Hash, Hasher};

use cardbench_engine::Database;
use cardbench_ml::{ModelScratch, WeightBatch};
use cardbench_query::{BoundQuery, JoinQuery, Predicate, Region, ResolvedNames, SubPlanQuery};
use cardbench_storage::TableId;
use cardbench_support::hash::FnvHasher;

use crate::common::{DirectedEdge, TableCoder};
use crate::scratch::with_scratch;

/// A per-table probabilistic model supporting weighted expectations over
/// its coder's model columns.
pub trait TableModel: Send {
    /// `E[Π_i w_i(X_i)]` for every weight set of `batch` (column `i`
    /// unconstrained = constant 1), appended to `out` in order. An
    /// item's value must not depend on the rest of the batch.
    fn expectation_batch(
        &self,
        batch: &WeightBatch,
        scratch: &mut ModelScratch,
        out: &mut Vec<f64>,
    );

    /// Approximate model size in bytes.
    fn size_bytes(&self) -> usize;

    /// Absorbs new binned rows (structure preserved).
    fn update(&mut self, binned: &[Vec<u16>]);
}

/// One multiplicative step of a fanout estimate, recorded in evaluation
/// order: a sub-plan's estimate is the running product of its steps.
#[derive(Clone, Copy)]
enum FanoutOp {
    /// Multiply by a constant (root row count, uniformity fallbacks).
    Mul(f64),
    /// Multiply by model `model`'s expectation over the `item`-th weight
    /// set compiled for it in this batch.
    Expect { model: u32, item: u32 },
}

/// One `(table, predicates, downward edges)` compiled in the current
/// batch. Everything a table contributes to a plan is a function of
/// that triple (and of immutable model state), so sub-plans sharing it —
/// most of a query's sub-plan set — share the compiled steps and the one
/// model evaluation behind them. Entry `i` of a table's list owns weight
/// set `i` of the table's [`WeightBatch`].
struct Compiled {
    /// Hash of the triple.
    hash: u64,
    /// The sub-plan and table position compiled from: where the
    /// predicates can be read again to confirm a hash match.
    sub: u32,
    pos: u32,
    /// The edges, in [`FanoutScratch::edges`].
    edges: (u32, u32),
    /// The steps, in [`FanoutScratch::table_ops`].
    ops: (u32, u32),
}

/// Reusable buffers of [`FanoutEstimator::estimate_batch`]. Sized by the
/// largest batch served; nothing in them outlives a call.
#[derive(Default)]
pub struct FanoutScratch {
    names: ResolvedNames,
    /// BFS over the join tree from position 0: visit order, visited
    /// flags, and per table position its range of `child_edges` (join
    /// indices, in discovery order).
    order: Vec<usize>,
    seen: Vec<bool>,
    child_edges: Vec<usize>,
    child_range: Vec<(usize, usize)>,
    /// The downward edges of the table being compiled.
    cur_edges: Vec<DirectedEdge>,
    /// Compiled triples by catalog table, with their edges and steps.
    compiled: Vec<Vec<Compiled>>,
    edges: Vec<DirectedEdge>,
    table_ops: Vec<FanoutOp>,
    /// Every sub-plan's steps, back to back, and where each ends.
    plan_ops: Vec<FanoutOp>,
    plan_ends: Vec<usize>,
    /// Per model: the weight sets compiled for it, and their values.
    weights: Vec<WeightBatch>,
    vals: Vec<Vec<f64>>,
    /// One filter's weights before they merge into a weight set.
    filter: Vec<f64>,
    model: ModelScratch,
}

/// Join estimation built from one [`TableModel`] per catalog table.
pub struct FanoutEstimator<M: TableModel> {
    /// Coders aligned with catalog table ids.
    pub coders: Vec<TableCoder>,
    /// Models aligned with catalog table ids.
    pub models: Vec<M>,
    /// Training-time row counts per table.
    pub row_counts: Vec<f64>,
}

/// The predicates of table position `pos` with their resolved columns,
/// in query order.
fn preds_of<'a>(
    query: &'a JoinQuery,
    names: &'a ResolvedNames,
    pos: usize,
) -> impl Iterator<Item = (&'a Predicate, usize)> {
    query
        .predicates
        .iter()
        .zip(&names.pred_cols)
        .filter(move |(p, _)| p.table == pos)
        .filter_map(|(p, col)| Some((p, (*col)?)))
}

impl<M: TableModel> FanoutEstimator<M> {
    /// Estimates an acyclic sub-plan query: the one-row case of
    /// [`FanoutEstimator::estimate_batch`].
    pub fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        let mut out = [0.0];
        with_scratch(|s| {
            self.estimate_into(db, std::slice::from_ref(sub), &mut s.fanout, &mut out)
        });
        out[0]
    }

    /// Estimates every sub-plan. Each distinct `(table, predicates,
    /// edges)` of the batch is compiled once, every model evaluates its
    /// weight sets in one [`TableModel::expectation_batch`] call, and
    /// each sub-plan's factors then multiply in its own step order — so
    /// a sub-plan's estimate does not depend on the rest of the batch.
    pub fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        let mut out = vec![0.0; subs.len()];
        with_scratch(|s| self.estimate_into(db, subs, &mut s.fanout, &mut out));
        out
    }

    fn estimate_into(
        &self,
        db: &Database,
        subs: &[SubPlanQuery],
        s: &mut FanoutScratch,
        out: &mut [f64],
    ) {
        let nt = self.models.len();
        s.compiled.resize_with(nt, Vec::new);
        s.weights.resize_with(nt, WeightBatch::default);
        s.vals.resize_with(nt, Vec::new);
        for t in 0..nt {
            s.compiled[t].clear();
            s.weights[t].reset(self.coders[t].columns.len());
        }
        s.edges.clear();
        s.table_ops.clear();
        s.plan_ops.clear();
        s.plan_ends.clear();
        for j in 0..subs.len() {
            let start = s.plan_ops.len();
            if self.compile_plan(db, subs, j, s).is_none() {
                // "Give up gracefully" (unbindable query or unmodeled
                // attribute): the single factor 1, the conventional
                // estimate.
                s.plan_ops.truncate(start);
                s.plan_ops.push(FanoutOp::Mul(1.0));
            }
            s.plan_ends.push(s.plan_ops.len());
        }
        for ((model, batch), vals) in self.models.iter().zip(&s.weights).zip(&mut s.vals) {
            vals.clear();
            if !batch.is_empty() {
                model.expectation_batch(batch, &mut s.model, vals);
            }
        }
        let mut start = 0;
        for (o, &end) in out.iter_mut().zip(&s.plan_ends) {
            let mut card = 1.0;
            for op in &s.plan_ops[start..end] {
                card *= match *op {
                    FanoutOp::Mul(c) => c,
                    FanoutOp::Expect { model, item } => s.vals[model as usize][item as usize],
                };
            }
            *o = card.max(0.0);
            start = end;
        }
    }

    /// Appends sub-plan `j`'s ordered multiplicative factors to
    /// `s.plan_ops`; `None` means "give up gracefully".
    fn compile_plan(
        &self,
        db: &Database,
        subs: &[SubPlanQuery],
        j: usize,
        s: &mut FanoutScratch,
    ) -> Option<()> {
        let query = &subs[j].query;
        if !s.names.resolve(query, db.catalog()) {
            return None;
        }
        let n = query.table_count();
        let root = (*s.names.tables.first()?)?;
        // Root the join tree at position 0.
        s.order.clear();
        s.order.push(0);
        s.seen.clear();
        s.seen.resize(n, false);
        s.seen[0] = true;
        s.child_edges.clear();
        s.child_range.clear();
        s.child_range.resize(n, (0, 0));
        let mut qi = 0;
        while qi < s.order.len() {
            let t = s.order[qi];
            qi += 1;
            let lo = s.child_edges.len();
            for (ei, e) in s.names.joins.iter().enumerate() {
                let e = (*e)?;
                let other = if e.left == t {
                    e.right
                } else if e.right == t {
                    e.left
                } else {
                    continue;
                };
                if !s.seen[other] {
                    s.seen[other] = true;
                    s.child_edges.push(ei);
                    s.order.push(other);
                }
            }
            s.child_range[t] = (lo, s.child_edges.len());
        }

        s.plan_ops.push(FanoutOp::Mul(self.row_counts[root.0]));
        for t in 0..n {
            let id = s.names.tables[t]?;
            s.cur_edges.clear();
            let (lo, hi) = s.child_range[t];
            for &ei in &s.child_edges[lo..hi] {
                let e = s.names.joins[ei]?;
                let (my_col, child_pos, child_col) = if e.left == t {
                    (e.left_col, e.right, e.right_col)
                } else {
                    (e.right_col, e.left, e.left_col)
                };
                s.cur_edges.push(DirectedEdge {
                    table: id,
                    my_col,
                    neighbor: s.names.tables[child_pos]?,
                    neighbor_col: child_col,
                });
            }
            let (lo, hi) = self.table_ops(db, subs, j, t, id, s)?;
            s.plan_ops.extend_from_slice(&s.table_ops[lo..hi]);
        }
        Some(())
    }

    /// The step subsequence table position `t` of sub-plan `j`
    /// contributes, as a range of `s.table_ops`: uniformity fallbacks
    /// for unmodeled edges, then the expectation over its merged
    /// filter/fanout weights. Compiled on first sight of the
    /// `(table, predicates, edges)` triple in this batch and shared from
    /// then on. `None` = unmodeled attribute.
    fn table_ops(
        &self,
        db: &Database,
        subs: &[SubPlanQuery],
        j: usize,
        t: usize,
        id: TableId,
        s: &mut FanoutScratch,
    ) -> Option<(usize, usize)> {
        let query = &subs[j].query;
        let mut h = FnvHasher::default();
        for (p, col) in preds_of(query, &s.names, t) {
            h.write_usize(col);
            p.region.hash(&mut h);
        }
        s.cur_edges.hash(&mut h);
        let hash = h.finish();
        let known = s.compiled[id.0].iter().find(|c| {
            let first = &subs[c.sub as usize].query;
            c.hash == hash
                && s.edges[c.edges.0 as usize..c.edges.1 as usize] == s.cur_edges[..]
                && query
                    .predicates_of(t)
                    .map(|p| (&p.column, &p.region))
                    .eq(first
                        .predicates_of(c.pos as usize)
                        .map(|p| (&p.column, &p.region)))
        });
        if let Some(c) = known {
            return Some((c.ops.0 as usize, c.ops.1 as usize));
        }

        let coder = &self.coders[id.0];
        if preds_of(query, &s.names, t).any(|(_, col)| coder.attr_column(col).is_none()) {
            return None; // unmodeled attribute; give up gracefully
        }
        let weights = &mut s.weights[id.0];
        let item = weights.push_item();
        let ops_lo = s.table_ops.len();
        // Filters.
        for (p, col) in preds_of(query, &s.names, t) {
            let mc = coder.attr_column(col).expect("checked just above");
            coder.filter_weights_into(mc, &p.region, &mut s.filter);
            weights.merge(item, mc, &s.filter);
        }
        // Downward fanouts.
        for edge in &s.cur_edges {
            if let Some(mc) = coder.fanout_column(edge) {
                weights.merge(item, mc, coder.fanout_weights(mc));
            } else {
                // Edge not modeled: fall back to a uniformity factor.
                s.table_ops.push(FanoutOp::Mul(uniformity_factor(db, edge)));
                s.table_ops
                    .push(FanoutOp::Mul(self.row_counts[edge.neighbor.0]));
            }
        }
        s.table_ops.push(FanoutOp::Expect {
            model: id.0 as u32,
            item: item as u32,
        });
        let edges_lo = s.edges.len();
        s.edges.extend_from_slice(&s.cur_edges);
        s.compiled[id.0].push(Compiled {
            hash,
            sub: j as u32,
            pos: t as u32,
            edges: (edges_lo as u32, s.edges.len() as u32),
            ops: (ops_lo as u32, s.table_ops.len() as u32),
        });
        Some((ops_lo, s.table_ops.len()))
    }

    /// Total model + coder size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.models
            .iter()
            .map(TableModel::size_bytes)
            .sum::<usize>()
            + self
                .coders
                .iter()
                .map(TableCoder::size_bytes)
                .sum::<usize>()
    }
}

/// Elementwise-product merge of weight vectors (`None` = all ones).
pub fn merge_weights(slot: &mut Option<Vec<f64>>, w: Vec<f64>) {
    match slot {
        None => *slot = Some(w),
        Some(cur) => {
            for (c, v) in cur.iter_mut().zip(w) {
                *c *= v;
            }
        }
    }
}

/// PostgreSQL's join-uniformity selectivity for one edge:
/// `nonnull_l · nonnull_r / max(nd_l, nd_r)`.
pub fn uniformity_factor(db: &Database, edge: &DirectedEdge) -> f64 {
    let sl = db.stats(edge.table, edge.my_col);
    let sr = db.stats(edge.neighbor, edge.neighbor_col);
    let nd = sl.distinct_count.max(sr.distinct_count).max(1) as f64;
    sl.non_null_frac() * sr.non_null_frac() / nd
}

/// Join-uniformity cardinality for a whole bound query given per-table
/// filtered selectivities (the traditional estimators' formula):
/// `Π_t |T_t|·sel_t × Π_edges uniformity`.
pub fn uniform_join_card(db: &Database, bound: &BoundQuery, sels: &[f64]) -> f64 {
    let mut card = 1.0;
    for (t, bt) in bound.tables.iter().enumerate() {
        card *= db.row_count(bt.id) as f64 * sels[t].clamp(0.0, 1.0);
    }
    for e in &bound.joins {
        let edge = DirectedEdge {
            table: bound.tables[e.left].id,
            my_col: e.left_col,
            neighbor: bound.tables[e.right].id,
            neighbor_col: e.right_col,
        };
        card *= uniformity_factor(db, &edge);
    }
    card.max(0.0)
}

/// An exact per-table "model" computing expectations directly from the
/// stored binned data. Useful for tests and as the upper bound of what
/// the fanout framework itself can achieve (its remaining error is the
/// cross-table independence assumption).
pub struct ExactTableModel {
    /// Binned columns.
    pub data: Vec<Vec<u16>>,
}

impl TableModel for ExactTableModel {
    fn expectation_batch(&self, batch: &WeightBatch, _: &mut ModelScratch, out: &mut Vec<f64>) {
        let n = self.data.first().map_or(0, Vec::len);
        for item in 0..batch.len() {
            let mut total = 0.0;
            for r in 0..n {
                let mut w = 1.0;
                for (c, col) in self.data.iter().enumerate() {
                    if let Some(wv) = batch.get(item, c) {
                        w *= wv[col[r] as usize];
                        if w == 0.0 {
                            break;
                        }
                    }
                }
                total += w;
            }
            out.push(if n == 0 { 0.0 } else { total / n as f64 });
        }
    }

    fn size_bytes(&self) -> usize {
        self.data.iter().map(|c| c.len() * 2).sum()
    }

    fn update(&mut self, binned: &[Vec<u16>]) {
        for (c, col) in self.data.iter_mut().enumerate() {
            col.extend_from_slice(&binned[c]);
        }
    }
}

/// Builds an exact-model fanout estimator over all catalog tables
/// (testing/ablation helper).
pub fn exact_fanout_estimator(db: &Database, max_bins: usize) -> FanoutEstimator<ExactTableModel> {
    let nt = db.catalog().table_count();
    let mut coders = Vec::with_capacity(nt);
    let mut models = Vec::with_capacity(nt);
    let mut row_counts = Vec::with_capacity(nt);
    for t in 0..nt {
        let id = TableId(t);
        let coder = TableCoder::fit(db, id, max_bins, true);
        let data = coder.binned(db, None);
        coders.push(coder);
        models.push(ExactTableModel { data });
        row_counts.push(db.row_count(id) as f64);
    }
    FanoutEstimator {
        coders,
        models,
        row_counts,
    }
}

/// Filter-region helper shared by single-table estimators: evaluates the
/// fraction of rows of `table` matching `preds` exactly (used by PessEst
/// and as ground truth in tests).
pub fn exact_selectivity(db: &Database, table: TableId, preds: &[(usize, Region)]) -> f64 {
    let t = db.catalog().table(table);
    let n = t.row_count();
    if n == 0 {
        return 0.0;
    }
    let mut hits = 0usize;
    for r in 0..n {
        let ok = preds
            .iter()
            .all(|(c, region)| t.column(*c).get(r).is_some_and(|v| region.contains(v)));
        if ok {
            hits += 1;
        }
    }
    hits as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_engine::exact_cardinality;
    use cardbench_query::{JoinEdge, JoinQuery, Predicate, SubPlanQuery, TableMask};
    use cardbench_storage::{
        Catalog, Column, ColumnDef, ColumnKind, JoinKind, JoinRelation, Table, TableSchema,
    };

    /// a(id,x) joins b(aid,y): degrees 2,1,0.
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
                    Column::from_values(vec![10, 20, 30]),
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

    fn subplan(q: JoinQuery) -> SubPlanQuery {
        let n = q.table_count();
        SubPlanQuery {
            mask: TableMask::full(n),
            query: q,
        }
    }

    #[test]
    fn exact_model_single_table() {
        let db = db();
        let est = exact_fanout_estimator(&db, 16);
        let q = JoinQuery::single("a", vec![Predicate::new(0, "x", Region::le(20))]);
        assert_eq!(est.estimate(&db, &subplan(q)), 2.0);
    }

    #[test]
    fn exact_model_join_no_filters() {
        let db = db();
        let est = exact_fanout_estimator(&db, 16);
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![],
        };
        let estd = est.estimate(&db, &subplan(q.clone()));
        let exact = exact_cardinality(&db, &q).unwrap();
        assert!((estd - exact).abs() < 1e-6, "est {estd} exact {exact}");
    }

    #[test]
    fn exact_model_join_with_root_filter() {
        let db = db();
        let est = exact_fanout_estimator(&db, 16);
        // Filter a.x <= 10 keeps only a.id=1 (fanout 2) → join card 2.
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![Predicate::new(0, "x", Region::le(10))],
        };
        let estd = est.estimate(&db, &subplan(q.clone()));
        // The fanout framework captures filter↔fanout correlation within a
        // table exactly, so this matches the true cardinality.
        assert!((estd - 2.0).abs() < 1e-6, "est {estd}");
    }

    #[test]
    fn child_filter_uses_independence() {
        let db = db();
        let est = exact_fanout_estimator(&db, 16);
        // Filter b.y = 5: true card 1; the framework assumes b's filter is
        // independent of the join key: 3 (join card) × 1/3 (sel) = 1 —
        // coincidentally exact here.
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![Predicate::new(1, "y", Region::eq(5))],
        };
        let estd = est.estimate(&db, &subplan(q.clone()));
        assert!((estd - 1.0).abs() < 1e-6, "est {estd}");
    }

    #[test]
    fn uniform_join_card_formula() {
        let db = db();
        let q = JoinQuery {
            tables: vec!["a".into(), "b".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "aid")],
            predicates: vec![],
        };
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let card = uniform_join_card(&db, &bound, &[1.0, 1.0]);
        // 3·3 / max(nd=3, nd=2) = 3.
        assert!((card - 3.0).abs() < 1e-9, "card {card}");
    }

    #[test]
    fn exact_selectivity_counts() {
        let db = db();
        let sel = exact_selectivity(&db, TableId(0), &[(1, Region::ge(20))]);
        assert!((sel - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn merge_weights_products() {
        let mut slot = None;
        merge_weights(&mut slot, vec![0.5, 1.0]);
        merge_weights(&mut slot, vec![0.5, 0.0]);
        assert_eq!(slot, Some(vec![0.25, 0.0]));
    }
}
