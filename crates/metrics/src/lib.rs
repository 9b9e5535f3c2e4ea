//! Evaluation metrics: Q-Error, the paper's proposed P-Error, and the
//! percentile / correlation machinery behind Table 7.
//!
//! Every aggregate in this crate is **total over arbitrary `f64` bit
//! patterns**: NaN samples are filtered (callers can count them with
//! [`nan_count`]) rather than fed to a panicking comparator, and a NaN
//! aggregate comes back only from an empty or all-NaN sample. Estimates
//! that should never reach aggregation in the first place are rejected
//! up front as [`MetricInput::Invalid`].

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::sync::Arc;

use cardbench_engine::{
    optimize_topo, plan_cost, CardMap, CostModel, Database, JoinTopology, PhysicalPlan,
};
use cardbench_query::{BoundQuery, JoinQuery, TableMask};

/// Q-Error of one estimate: `max(est/true, true/est)` with both sides
/// clamped to at least one row (PostgreSQL's clamp), so Q-Error ≥ 1.
///
/// The clamp has a trap: `f64::max` returns the *other* operand when one
/// side is NaN, so a NaN estimate silently scores as a 1-row estimate
/// instead of an error. Use [`q_error_checked`] anywhere the estimate
/// may be a failure value.
pub fn q_error(estimate: f64, truth: f64) -> f64 {
    let e = estimate.max(1.0);
    let t = truth.max(1.0);
    (e / t).max(t / e)
}

/// A scoring input that is either a usable sample or a typed rejection.
///
/// Distinguishes "this estimator answered 1.0 rows" (a legitimate — if
/// terrible — estimate) from "this estimator produced NaN/±inf", which
/// must be *excluded* from percentile triples, not clamped into a
/// flattering Q-Error of `truth`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricInput {
    /// A finite metric value, safe to aggregate.
    Valid(f64),
    /// A non-finite estimate or truth: excluded from aggregation.
    Invalid,
}

impl MetricInput {
    /// The value, if valid.
    pub fn value(self) -> Option<f64> {
        match self {
            MetricInput::Valid(v) => Some(v),
            MetricInput::Invalid => None,
        }
    }
}

/// [`q_error`] with non-finite inputs rejected instead of silently
/// clamped: a NaN or ±inf estimate (or truth) yields
/// [`MetricInput::Invalid`] so the caller can exclude and count it.
pub fn q_error_checked(estimate: f64, truth: f64) -> MetricInput {
    if !estimate.is_finite() || !truth.is_finite() {
        return MetricInput::Invalid;
    }
    MetricInput::Valid(q_error(estimate, truth))
}

/// How many samples are NaN — the count excluded by the percentile and
/// correlation aggregates below.
pub fn nan_count(values: &[f64]) -> usize {
    values.iter().filter(|v| v.is_nan()).count()
}

/// PostgreSQL plan cost (PPC): the cost of plan `plan` when every node's
/// input/output rows come from `cards` — the paper's
/// `PPC(P(·), C^T)` primitive.
pub fn ppc(
    plan: &PhysicalPlan,
    db: &Database,
    bound: &BoundQuery,
    cost: &CostModel,
    cards: &CardMap,
) -> f64 {
    plan_cost(plan, db, bound, cost, &|m| cards.rows(m))
}

/// P-Error of one query:
/// `PPC(P(C^E), C^T) / PPC(P(C^T), C^T)` — the plan chosen from the
/// estimates, costed with the truth, relative to the truth-chosen plan.
/// ≥ 1 whenever the optimizer is exact over its own cost model.
///
/// One [`JoinTopology`] is fetched from the database's topology cache and
/// shared by all four steps: both optimize calls replay the dense DP over
/// it, and both PPC costings read true rows through its dense index. A
/// caller that already holds the estimate plan scores it with
/// [`TruthCost::p_error`] instead and skips the estimate DP.
pub fn p_error(
    db: &Database,
    cost: &CostModel,
    query: &JoinQuery,
    bound: &BoundQuery,
    est_cards: &CardMap,
    true_cards: &CardMap,
) -> f64 {
    let topo = db.topology(query, bound);
    let dense_e = est_cards.dense_view(&topo);
    let (_, plan_e) = optimize_topo(&topo, bound, db, &dense_e, cost, false);
    let dense_t = true_cards.dense_view(&topo);
    TruthCost::new(db, cost, topo, bound, dense_t).p_error(db, cost, bound, &plan_e)
}

/// The truth half of P-Error for one query: its true rows, dense over its
/// topology, and `PPC(P(C^T), C^T)`, the true cost of the plan they
/// choose. It does not depend on the estimates, so a caller that scores
/// several estimate plans of one query computes it once.
#[derive(Debug)]
pub struct TruthCost {
    topo: Arc<JoinTopology>,
    rows: Vec<f64>,
    optimal: f64,
}

impl TruthCost {
    /// Plans the query from `rows` (the true cards, dense over `topo`,
    /// as [`CardMap::dense_view`] gives them) and costs that plan.
    pub fn new(
        db: &Database,
        cost: &CostModel,
        topo: Arc<JoinTopology>,
        bound: &BoundQuery,
        rows: Vec<f64>,
    ) -> TruthCost {
        let (own, plan) = optimize_topo(&topo, bound, db, &rows, cost, false);
        let mut truth = TruthCost {
            topo,
            rows,
            optimal: 0.0,
        };
        truth.optimal = truth.cost_of(db, cost, bound, &plan);
        debug_assert_eq!(
            truth.optimal.to_bits(),
            own.to_bits(),
            "truth-planned cost must equal the DP's own cost under truth"
        );
        truth
    }

    /// P-Error of `plan`, the plan chosen from the estimates: its cost
    /// under the true rows over the truth-chosen plan's.
    pub fn p_error(
        &self,
        db: &Database,
        cost: &CostModel,
        bound: &BoundQuery,
        plan: &PhysicalPlan,
    ) -> f64 {
        if self.optimal <= 0.0 {
            1.0
        } else {
            self.cost_of(db, cost, bound, plan) / self.optimal
        }
    }

    /// `PPC(plan, C^T)` through the dense index; 1.0 for unindexed masks
    /// matches `CardMap::rows` (plans only ever carry connected masks, so
    /// the default is never hit in practice).
    fn cost_of(
        &self,
        db: &Database,
        cost: &CostModel,
        bound: &BoundQuery,
        plan: &PhysicalPlan,
    ) -> f64 {
        let rows = |m: TableMask| self.topo.index_of(m).map_or(1.0, |i| self.rows[i]);
        plan_cost(plan, db, bound, cost, &rows)
    }
}

/// The `p`-th percentile (0..=1) of a sample, by linear interpolation on
/// the sorted values. NaN samples are filtered out (report them via
/// [`nan_count`]); the result is NaN only when the sample is empty or
/// all-NaN. Total over every `f64` bit pattern — never panics.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = p.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    // Both indices clamped to the last element: `ceil` of a boundary
    // quantile must never step one past the end of a short slice.
    let lo = (pos.floor() as usize).min(v.len() - 1);
    let hi = (pos.ceil() as usize).min(v.len() - 1);
    if lo == hi {
        v[lo]
    } else {
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    }
}

/// The 50/90/99-percentile triple reported throughout paper Table 7.
pub fn percentile_triple(values: &[f64]) -> (f64, f64, f64) {
    (
        percentile(values, 0.50),
        percentile(values, 0.90),
        percentile(values, 0.99),
    )
}

/// Pearson correlation coefficient.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    let mx = xs.iter().sum::<f64>() / nf;
    let my = ys.iter().sum::<f64>() / nf;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx <= 0.0 || syy <= 0.0 {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// Spearman rank correlation (Pearson over ranks, mean rank for ties).
/// Pairs where either coordinate is NaN are dropped before ranking
/// (count them via [`nan_count`] on the inputs); total over every `f64`
/// bit pattern — never panics.
pub fn spearman(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    let (fx, fy): (Vec<f64>, Vec<f64>) = xs
        .iter()
        .zip(ys)
        .filter(|(x, y)| !x.is_nan() && !y.is_nan())
        .map(|(&x, &y)| (x, y))
        .unzip();
    pearson(&ranks(&fx), &ranks(&fy))
}

fn ranks(v: &[f64]) -> Vec<f64> {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].total_cmp(&v[b]));
    let mut r = vec![0.0; v.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && v[idx[j + 1]].total_cmp(&v[idx[i]]).is_eq() {
            j += 1;
        }
        let mean_rank = (i + j) as f64 / 2.0;
        for &k in &idx[i..=j] {
            r[k] = mean_rank;
        }
        i = j + 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_query::{connected_subsets, JoinEdge, Predicate, Region, TableMask};
    use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

    #[test]
    fn q_error_symmetric_and_clamped() {
        assert_eq!(q_error(10.0, 100.0), 10.0);
        assert_eq!(q_error(100.0, 10.0), 10.0);
        assert_eq!(q_error(0.0, 0.5), 1.0);
        assert!(q_error(1.0, 1.0) >= 1.0);
    }

    #[test]
    fn q_error_checked_rejects_non_finite() {
        assert_eq!(q_error_checked(10.0, 100.0), MetricInput::Valid(10.0));
        assert_eq!(q_error_checked(f64::NAN, 100.0), MetricInput::Invalid);
        assert_eq!(q_error_checked(f64::INFINITY, 100.0), MetricInput::Invalid);
        assert_eq!(
            q_error_checked(f64::NEG_INFINITY, 1.0),
            MetricInput::Invalid
        );
        assert_eq!(q_error_checked(5.0, f64::NAN), MetricInput::Invalid);
        assert_eq!(MetricInput::Valid(2.0).value(), Some(2.0));
        assert_eq!(MetricInput::Invalid.value(), None);
        // The silent clamp this guards against: plain q_error scores a
        // NaN estimate as if the estimator had answered 1 row.
        assert_eq!(q_error(f64::NAN, 100.0), 100.0);
    }

    #[test]
    fn percentile_filters_nan_and_never_panics() {
        let v = [3.0, f64::NAN, 1.0, 2.0, f64::NAN];
        assert_eq!(nan_count(&v), 2);
        assert_eq!(percentile(&v, 0.5), 2.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 3.0);
        assert!(percentile(&[], 0.5).is_nan());
        assert!(percentile(&[f64::NAN, f64::NAN], 0.5).is_nan());
        // ±inf are legitimate (if extreme) samples and sort to the ends.
        let w = [f64::NEG_INFINITY, 0.0, f64::INFINITY];
        assert_eq!(percentile(&w, 0.5), 0.0);
        let (p50, _, _) = percentile_triple(&[f64::NAN, 7.0]);
        assert_eq!(p50, 7.0);
    }

    #[test]
    fn percentile_boundary_quantiles_stay_in_bounds() {
        // Empty and all-NaN samples: NaN, no panic.
        assert!(percentile(&[], 0.0).is_nan());
        assert!(percentile(&[], 1.0).is_nan());
        // Single element: every quantile is that element.
        for p in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[42.0], p), 42.0);
        }
        // p=0 / p=100%: exact extremes on short slices.
        let v = [5.0, 1.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        // Out-of-range p is clamped, not extrapolated.
        assert_eq!(percentile(&v, -3.0), 1.0);
        assert_eq!(percentile(&v, 7.0), 5.0);
        // A p chosen so pos lands exactly on the last index: lo == hi
        // must hit the final element, never one past it.
        let w = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&w, 1.0), 3.0);
        assert_eq!(percentile(&w, 0.5), 2.0);
    }

    #[test]
    fn spearman_drops_nan_pairs() {
        let xs = [1.0, 2.0, f64::NAN, 4.0, 5.0];
        let ys = [2.0, 4.0, 6.0, f64::NAN, 10.0];
        // Surviving pairs (1,2) (2,4) (5,10) are perfectly monotone.
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-9);
        let all_nan = [f64::NAN, f64::NAN];
        assert_eq!(spearman(&all_nan, &all_nan), 0.0);
    }

    #[test]
    fn percentiles_interpolate() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert!((percentile(&v, 0.5) - 50.5).abs() < 1e-9);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        let (p50, p90, p99) = percentile_triple(&v);
        assert!(p50 < p90 && p90 < p99);
    }

    #[test]
    fn pearson_and_spearman_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [2.0, 4.0, 6.0, 8.0, 10.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-9);
        assert!((spearman(&xs, &ys) - 1.0).abs() < 1e-9);
        // Monotone but non-linear: Spearman 1, Pearson < 1.
        let zs = [1.0, 8.0, 27.0, 64.0, 125.0];
        assert!((spearman(&xs, &zs) - 1.0).abs() < 1e-9);
        assert!(pearson(&xs, &zs) < 1.0);
    }

    fn db() -> Database {
        let mut cat = Catalog::new();
        for (name, rows, modulus) in [("a", 2000usize, 20i64), ("b", 400, 10), ("c", 50, 5)] {
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
                        Column::from_values((0..rows as i64).map(|i| i % 50).collect()),
                        Column::from_values((0..rows as i64).map(|i| i % modulus).collect()),
                    ],
                )
                .unwrap(),
            );
        }
        Database::new(cat)
    }

    fn query() -> JoinQuery {
        JoinQuery {
            tables: vec!["a".into(), "b".into(), "c".into()],
            joins: vec![JoinEdge::new(0, "k", 1, "k"), JoinEdge::new(1, "k", 2, "k")],
            predicates: vec![Predicate::new(0, "v", Region::le(5))],
        }
    }

    fn true_cards(db: &Database, q: &JoinQuery) -> CardMap {
        use cardbench_engine::exact_cardinality;
        use cardbench_query::SubPlanQuery;
        let mut m = CardMap::new();
        for mask in connected_subsets(q) {
            let sp = SubPlanQuery::project(q, mask);
            m.insert(mask, exact_cardinality(db, &sp.query).unwrap());
        }
        m
    }

    #[test]
    fn p_error_is_one_for_true_cards() {
        let db = db();
        let q = query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let cards = true_cards(&db, &q);
        let pe = p_error(&db, &CostModel::default(), &q, &bound, &cards, &cards);
        assert!((pe - 1.0).abs() < 1e-9);
    }

    #[test]
    fn p_error_at_least_one_for_any_estimates() {
        let db = db();
        let q = query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let truth = true_cards(&db, &q);
        for factor in [0.001, 0.1, 10.0, 1000.0] {
            let mut est = CardMap::new();
            for mask in connected_subsets(&q) {
                est.insert(TableMask(mask.0), truth.rows(mask) * factor);
            }
            let pe = p_error(&db, &CostModel::default(), &q, &bound, &est, &truth);
            assert!(pe >= 1.0 - 1e-9, "factor {factor}: p_error {pe}");
        }
    }

    /// The shared-topology path equals what it replaced, bit for bit:
    /// two independent reference DP runs, both plans re-costed under the
    /// truth.
    #[test]
    fn p_error_equals_two_reference_plans_costed_under_truth() {
        use cardbench_engine::optimize_reference;
        let db = db();
        let q = query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let cost = CostModel::default();
        let truth = true_cards(&db, &q);
        for factor in [0.001, 0.1, 1.0, 10.0, 1000.0] {
            // Mask-dependent misestimates, so the two plans can differ.
            let mut est = CardMap::new();
            for mask in connected_subsets(&q) {
                let skew = 1.0 + (mask.0 % 7) as f64;
                est.insert(mask, (truth.rows(mask) + 1.0) * factor * skew);
            }
            let (_, plan_e) = optimize_reference(&q, &bound, &db, &est, &cost, false);
            let (_, plan_t) = optimize_reference(&q, &bound, &db, &truth, &cost, false);
            let reference =
                ppc(&plan_e, &db, &bound, &cost, &truth) / ppc(&plan_t, &db, &bound, &cost, &truth);
            let pe = p_error(&db, &cost, &q, &bound, &est, &truth);
            assert_eq!(pe.to_bits(), reference.to_bits(), "factor {factor}");
        }
    }

    #[test]
    fn bad_estimates_can_raise_p_error() {
        let db = db();
        let q = query();
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let truth = true_cards(&db, &q);
        // Invert the relative sizes of the two join pairs to force a bad
        // join order.
        let mut est = CardMap::new();
        for mask in connected_subsets(&q) {
            let t = truth.rows(mask);
            let skew = if mask.count() == 2 {
                1.0 / (t * t).max(1.0)
            } else {
                t
            };
            est.insert(TableMask(mask.0), skew);
        }
        let pe = p_error(&db, &CostModel::default(), &q, &bound, &est, &truth);
        assert!(pe >= 1.0);
    }
}
