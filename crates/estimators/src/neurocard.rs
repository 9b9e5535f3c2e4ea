//! NeuroCard^E: deep autoregressive models over full-outer-join samples,
//! one per tree partition of the schema (the paper's extension of
//! NeuroCard to non-tree schemas).
//!
//! Per partition, the AR model is trained on an exact-uniform FOJ sample
//! over presence flags and binned attributes (see [`crate::foj`]). A
//! query on a connected table subset `J` is
//! `card = FOJ_size · E[ Π_{t∈J} present_t·filters_t · (1/D_top(J)) ·
//! Π_{boundary edges} (1/g) ]`; the filter/presence factor comes from the
//! AR model by progressive sampling while the join-scale factor
//! `E[(1/D)·Π(1/g) | J present]` is computed from the retained FOJ
//! sample (a documented variance-reduction substitution — the scale is a
//! per-sample bookkeeping quantity, not a modeling target). Queries
//! spanning partitions are stitched with join-uniformity factors — the
//! information loss behind the paper's observation O3.

use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::SeedableRng;

use cardbench_engine::Database;
use cardbench_ml::autoreg::ArConfig;
use cardbench_ml::{AutoRegModel, Discretizer};
use cardbench_query::{BoundQuery, SubPlanQuery};
use cardbench_storage::TableId;

use crate::common::DirectedEdge;
use crate::fanout::{merge_weights, uniformity_factor};
use crate::foj::{partition_schema, sample_foj, TreePartition};
use crate::CardEst;

/// NeuroCard configuration.
#[derive(Debug, Clone)]
pub struct NeuroCardConfig {
    /// FOJ sample rows per partition.
    pub sample_rows: usize,
    /// Bins per model column.
    pub max_bins: usize,
    /// Autoregressive backbone configuration.
    pub ar: ArConfig,
    /// Seed.
    pub seed: u64,
}

impl Default for NeuroCardConfig {
    fn default() -> Self {
        NeuroCardConfig {
            sample_rows: 8000,
            max_bins: 24,
            ar: ArConfig::default(),
            seed: 0,
        }
    }
}

/// What one model column of a partition encodes.
#[derive(Debug, Clone)]
enum FojColumn {
    /// Presence flag of a local table (bins: 0 = absent, 1 = present).
    Present(usize),
    /// A binned attribute of a local table (base column index).
    Attr(usize, usize),
}

/// One partition's trained model.
struct PartitionModel {
    partition: TreePartition,
    total: f64,
    columns: Vec<FojColumn>,
    /// Discretizer per column (presence columns use a trivial one).
    discretizers: Vec<Discretizer>,
    bins: Vec<usize>,
    model: AutoRegModel,
    /// Per sample, per local table: present flag (scale bookkeeping).
    presence: Vec<Vec<bool>>,
    /// Per sample, per local table: downward multiplicity `D`.
    d_vals: Vec<Vec<f64>>,
    /// Per sample, per local table (non-root): parent branch factor `g`.
    g_vals: Vec<Vec<f64>>,
}

impl PartitionModel {
    fn fit(db: &Database, partition: &TreePartition, cfg: &NeuroCardConfig) -> PartitionModel {
        let sample = sample_foj(db, partition, cfg.sample_rows, cfg.seed);
        let k = partition.tables.len();
        // Assemble raw columns.
        let mut columns = Vec::new();
        let mut raw: Vec<Vec<f64>> = Vec::new();
        let n = sample.rows.len();
        for local in 0..k {
            columns.push(FojColumn::Present(local));
            raw.push(
                (0..n)
                    .map(|s| sample.rows[s][local].is_some() as u8 as f64)
                    .collect(),
            );
            let table = db.catalog().table(partition.tables[local]);
            for c in table.schema().filterable_columns() {
                columns.push(FojColumn::Attr(local, c));
                raw.push(
                    (0..n)
                        .map(|s| match sample.rows[s][local] {
                            Some(r) => table
                                .column(c)
                                .get(r as usize)
                                .map_or(f64::NAN, |v| v as f64),
                            None => f64::NAN,
                        })
                        .collect(),
                );
            }
        }
        // Discretize: NaN = NULL bin (last).
        let mut discretizers = Vec::with_capacity(columns.len());
        let mut bins = Vec::with_capacity(columns.len());
        let mut binned: Vec<Vec<u16>> = Vec::with_capacity(columns.len());
        for vals in &raw {
            let non_null: Vec<i64> = vals
                .iter()
                .filter(|v| !v.is_nan())
                .map(|&v| v as i64)
                .collect();
            let d = Discretizer::fit(&non_null, cfg.max_bins);
            let nb = d.bin_count();
            let col_binned: Vec<u16> = vals
                .iter()
                .map(|&v| {
                    if v.is_nan() {
                        nb as u16
                    } else {
                        d.bin_of(v as i64) as u16
                    }
                })
                .collect();
            discretizers.push(d);
            bins.push(nb + 1);
            binned.push(col_binned);
        }
        let model = AutoRegModel::fit(&binned, &bins, cfg.ar.clone());
        let presence = sample
            .rows
            .iter()
            .map(|row| row.iter().map(Option::is_some).collect())
            .collect();
        PartitionModel {
            partition: partition.clone(),
            total: sample.total,
            columns,
            discretizers,
            bins,
            model,
            presence,
            d_vals: sample.d_vals,
            g_vals: sample.g_vals,
        }
    }

    /// Empirical join-scale factor
    /// `E[(1/D_top)·Π_{boundary} (1/g) | all of J present]`.
    fn scale_factor(&self, locals: &[usize], top: usize) -> f64 {
        let in_j = |l: usize| locals.contains(&l);
        let mut acc = 0.0f64;
        let mut cnt = 0usize;
        for (s, pres) in self.presence.iter().enumerate() {
            if locals.iter().any(|&l| !pres[l]) {
                continue;
            }
            let mut w = 1.0 / self.d_vals[s][top].max(1.0);
            for l in 1..self.partition.tables.len() {
                let p = self.partition.parent[l].expect("non-root").0;
                if in_j(p) && !in_j(l) {
                    w /= self.g_vals[s][l].max(1.0);
                }
            }
            acc += w;
            cnt += 1;
        }
        if cnt == 0 {
            1.0
        } else {
            acc / cnt as f64
        }
    }

    /// Plans a connected query whose tables all live in this partition
    /// (given as local indices + per-local filter weights over raw
    /// attribute regions): returns the AR weight vector and the empirical
    /// join-scale factor. The model query itself is deferred to the
    /// caller so a batch of sub-plans can share one progressive-sampling
    /// pass per model.
    fn plan_query(
        &self,
        locals: &[usize],
        filters: &[(usize, usize, cardbench_query::Region)],
    ) -> (Vec<Option<Vec<f64>>>, f64) {
        let depths = self.partition.depths();
        let top = *locals
            .iter()
            .min_by_key(|&&l| depths[l])
            .expect("non-empty query");
        let in_j = |l: usize| locals.contains(&l);
        let mut weights: Vec<Option<Vec<f64>>> = vec![None; self.columns.len()];
        for (ci, col) in self.columns.iter().enumerate() {
            match col {
                FojColumn::Present(l) if in_j(*l) => {
                    // present bit: bins are the discretizer's (0/1 values).
                    let d = &self.discretizers[ci];
                    let nb = d.bin_count();
                    let mut w = vec![0.0; nb + 1];
                    if let Some((b, _)) = d.bin_range(1, 1) {
                        w[b] = 1.0;
                    }
                    weights[ci] = Some(w);
                }
                _ => {}
            }
        }
        for (local, base_col, region) in filters {
            let ci = self
                .columns
                .iter()
                .position(|c| matches!(c, FojColumn::Attr(l, b) if l == local && b == base_col))
                .expect("filter on modeled attribute");
            let d = &self.discretizers[ci];
            let nb = d.bin_count();
            let mut w = vec![0.0; nb + 1];
            if let cardbench_query::Region::Range { lo, hi } = region {
                if let Some((b_lo, b_hi)) = d.bin_range(*lo, *hi) {
                    for (b, wb) in w.iter_mut().enumerate().take(b_hi + 1).skip(b_lo) {
                        *wb = d.coverage(b, *lo, *hi);
                    }
                }
            } else if let cardbench_query::Region::In(vals) = region {
                for &v in vals {
                    if let Some((b, _)) = d.bin_range(v, v) {
                        w[b] = (w[b] + d.coverage(b, v, v)).min(1.0);
                    }
                }
            }
            merge_weights(&mut weights[ci], w);
        }
        (weights, self.scale_factor(locals, top))
    }

    fn size_bytes(&self) -> usize {
        let k = self.partition.tables.len();
        self.model.size_bytes()
            + self
                .discretizers
                .iter()
                .map(Discretizer::heap_size)
                .sum::<usize>()
            + self.bins.len() * 8
            + self.presence.len() * k * 17 // presence + D + g bookkeeping
    }
}

/// One multiplicative step of a NeuroCard^E estimate, in evaluation
/// order. Splitting planning (deterministic greedy partition cover) from
/// evaluation (AR model queries, which consume the progressive-sampling
/// RNG) lets a batch of sub-plans share one model pass per partition
/// while keeping per-sub-plan results bit-identical to the sequential
/// path.
enum NcOp {
    /// Multiply by `total · E[filters] · scale` of partition `pi`; the
    /// expectation is the (RNG-consuming) AR model query over `weights`.
    Model {
        pi: usize,
        weights: Vec<Option<Vec<f64>>>,
        scale: f64,
    },
    /// Multiply by a precomputed constant (uniformity bridge factors).
    Mul(f64),
}

/// The NeuroCard^E estimator.
pub struct NeuroCardE {
    partitions: Vec<PartitionModel>,
    cfg: NeuroCardConfig,
    /// Base seed for per-call inference RNGs (progressive sampling).
    seed: u64,
}

impl NeuroCardE {
    /// Trains one AR model per tree partition.
    pub fn fit(db: &Database, cfg: &NeuroCardConfig) -> NeuroCardE {
        let partitions = partition_schema(db)
            .iter()
            .map(|p| PartitionModel::fit(db, p, cfg))
            .collect();
        NeuroCardE {
            partitions,
            cfg: cfg.clone(),
            seed: cfg.seed ^ 0x9e,
        }
    }

    /// Number of partitions (paper: 16 trees on real STATS).
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Per-call inference RNG keyed by the query's canonical hash:
    /// progressive sampling for one sub-plan is independent of estimation
    /// order, so parallel (and batched) harness runs reproduce the
    /// sequential numbers.
    fn rng_for(&self, sub: &SubPlanQuery) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ sub.query.canonical_hash())
    }

    /// Greedily covers the query's edges with partitions (leftover edges
    /// get uniformity factors) and emits the multiplicative steps in
    /// evaluation order. `None` means "bail out safely with 1.0".
    fn plan(&self, db: &Database, sub: &SubPlanQuery) -> Option<Vec<NcOp>> {
        let bound = BoundQuery::bind(&sub.query, db.catalog()).ok()?;
        let n = sub.query.table_count();
        let mut remaining_edges: Vec<usize> = (0..bound.joins.len()).collect();
        let mut remaining_tables: Vec<usize> = (0..n).collect();
        let mut ops = Vec::new();
        while !remaining_tables.is_empty() {
            // Pick the partition covering the most remaining edges from
            // the first remaining table's component.
            let mut best: Option<(usize, Vec<usize>, Vec<usize>)> = None; // (pi, covered edges, covered tables)
            for (pi, pm) in self.partitions.iter().enumerate() {
                let (_, covered, tabs) =
                    cover(&pm.partition, &bound, &remaining_edges, &remaining_tables);
                if !tabs.is_empty()
                    && best
                        .as_ref()
                        .is_none_or(|(_, c, _)| covered.len() > c.len())
                {
                    best = Some((pi, covered, tabs));
                }
            }
            // No partition covers anything (shouldn't happen: every table
            // alone is coverable) — bail out safely.
            let (pi, covered, covered_tables) = best?;
            // Filters for covered tables.
            let pm = &self.partitions[pi];
            let mut local_list = Vec::new();
            let mut filters = Vec::new();
            for &t in &covered_tables {
                let local = pm
                    .partition
                    .tables
                    .iter()
                    .position(|&id| id == bound.tables[t].id)
                    .expect("covered table in partition");
                local_list.push(local);
                for p in &bound.tables[t].predicates {
                    filters.push((local, p.column, p.region.clone()));
                }
            }
            let (weights, scale) = pm.plan_query(&local_list, &filters);
            ops.push(NcOp::Model { pi, weights, scale });
            // Remove covered tables/edges; bridge uncovered edges between
            // covered and uncovered tables with uniformity.
            remaining_tables.retain(|t| !covered_tables.contains(t));
            let mut still = Vec::new();
            for &ei in &remaining_edges {
                if covered.contains(&ei) {
                    continue;
                }
                let e = &bound.joins[ei];
                let l_cov = covered_tables.contains(&e.left);
                let r_cov = covered_tables.contains(&e.right);
                if l_cov || r_cov {
                    // Bridge across component boundary.
                    ops.push(NcOp::Mul(uniformity_factor(
                        db,
                        &DirectedEdge {
                            table: bound.tables[e.left].id,
                            my_col: e.left_col,
                            neighbor: bound.tables[e.right].id,
                            neighbor_col: e.right_col,
                        },
                    )));
                    if l_cov && r_cov {
                        // Both sides already counted: the bridge factor
                        // alone corrects the product.
                        continue;
                    }
                    still.push(ei);
                } else {
                    still.push(ei);
                }
            }
            remaining_edges = still;
        }
        Some(ops)
    }
}

impl CardEst for NeuroCardE {
    fn name(&self) -> &'static str {
        "NeuroCard^E"
    }

    /// The one-row case of [`CardEst::estimate_batch`].
    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.estimate_batch(db, std::slice::from_ref(sub))[0]
    }

    /// Batched inference: plans every sub-plan, then walks the op lists
    /// position by position, grouping same-partition model queries into
    /// one [`AutoRegModel::query_batch`] call with each sub-plan's own
    /// RNG threaded through. Each sub-plan has at most one op per
    /// position, so its multiplications happen in op-list order, and
    /// `query_batch` advances each RNG exactly as the per-item `query`
    /// would — an answer does not depend on what shares its batch.
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        let plans: Vec<Option<Vec<NcOp>>> = subs.iter().map(|s| self.plan(db, s)).collect();
        let mut rngs: Vec<StdRng> = subs.iter().map(|s| self.rng_for(s)).collect();
        let mut cards = vec![1.0f64; subs.len()];
        let max_ops = plans.iter().flatten().map(Vec::len).max().unwrap_or(0);
        for pos in 0..max_ops {
            // Constants apply inline; model ops group by partition.
            let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
            for (i, plan) in plans.iter().enumerate() {
                let Some(ops) = plan else { continue };
                match ops.get(pos) {
                    Some(NcOp::Mul(f)) => cards[i] *= f,
                    Some(NcOp::Model { pi, .. }) => {
                        if let Some(g) = groups.iter_mut().find(|(p, _)| p == pi) {
                            g.1.push(i);
                        } else {
                            groups.push((*pi, vec![i]));
                        }
                    }
                    None => {}
                }
            }
            for (pi, items) in groups {
                let pm = &self.partitions[pi];
                let batch: Vec<&[Option<Vec<f64>>]> = items
                    .iter()
                    .map(
                        |&i| match plans[i].as_deref().and_then(|ops| ops.get(pos)) {
                            Some(NcOp::Model { weights, .. }) => weights.as_slice(),
                            _ => unreachable!("grouped item has a model op"),
                        },
                    )
                    .collect();
                let mut grp_rngs: Vec<StdRng> = items.iter().map(|&i| rngs[i].clone()).collect();
                let qs = pm.model.query_batch(&batch, &mut grp_rngs);
                for ((&i, q), r) in items.iter().zip(qs).zip(grp_rngs) {
                    let Some(NcOp::Model { scale, .. }) =
                        plans[i].as_deref().and_then(|ops| ops.get(pos))
                    else {
                        unreachable!("grouped item has a model op");
                    };
                    cards[i] *= pm.total * q * *scale;
                    rngs[i] = r;
                }
            }
        }
        cards.into_iter().map(|c| c.max(0.0)).collect()
    }

    fn batch_leverage(&self) -> bool {
        true
    }

    fn model_size_bytes(&self) -> usize {
        self.partitions.iter().map(PartitionModel::size_bytes).sum()
    }

    fn supports_update(&self) -> bool {
        true
    }

    fn apply_inserts(&mut self, db: &Database, _delta: &[cardbench_storage::Table]) {
        // NeuroCard must re-sample the FOJ and retrain — the slow update
        // path the paper measures. A shortened schedule (fewer epochs)
        // mirrors the degraded accuracy of its incremental retraining.
        let mut cfg = self.cfg.clone();
        cfg.ar.epochs = (cfg.ar.epochs / 2).max(1);
        cfg.seed ^= 0x1111;
        *self = NeuroCardE::fit(db, &cfg);
    }
}

/// Largest connected set of remaining query tables embeddable in the
/// partition such that their connecting query edges are partition edges.
/// Returns `(locals, covered edge ids, covered table positions)`.
fn cover(
    partition: &TreePartition,
    bound: &BoundQuery,
    remaining_edges: &[usize],
    remaining_tables: &[usize],
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    // Start from the first remaining table present in the partition.
    let Some(&start) = remaining_tables
        .iter()
        .find(|&&t| partition.tables.contains(&bound.tables[t].id))
    else {
        return (Vec::new(), Vec::new(), Vec::new());
    };
    let mut tabs = vec![start];
    let mut covered = Vec::new();
    let mut grew = true;
    while grew {
        grew = false;
        for &ei in remaining_edges {
            if covered.contains(&ei) {
                continue;
            }
            let e = &bound.joins[ei];
            let (inside, outside) = if tabs.contains(&e.left) && !tabs.contains(&e.right) {
                (e.left, e.right)
            } else if tabs.contains(&e.right) && !tabs.contains(&e.left) {
                (e.right, e.left)
            } else {
                continue;
            };
            if !remaining_tables.contains(&outside) {
                continue;
            }
            // The edge must exist in the partition tree with matching
            // columns (either direction).
            let (in_col, out_col) = if inside == e.left {
                (e.left_col, e.right_col)
            } else {
                (e.right_col, e.left_col)
            };
            if partition_has_edge(
                partition,
                bound.tables[inside].id,
                in_col,
                bound.tables[outside].id,
                out_col,
            ) {
                tabs.push(outside);
                covered.push(ei);
                grew = true;
            }
        }
    }
    let locals = tabs
        .iter()
        .map(|&t| {
            partition
                .tables
                .iter()
                .position(|&id| id == bound.tables[t].id)
                .expect("in partition")
        })
        .collect();
    (locals, covered, tabs)
}

fn partition_has_edge(
    partition: &TreePartition,
    a: TableId,
    a_col: usize,
    b: TableId,
    b_col: usize,
) -> bool {
    for (i, p) in partition.parent.iter().enumerate() {
        let Some((pl, my_col, parent_col)) = p else {
            continue;
        };
        let child_id = partition.tables[i];
        let parent_id = partition.tables[*pl];
        let matches = (child_id == a && *my_col == a_col && parent_id == b && *parent_col == b_col)
            || (child_id == b && *my_col == b_col && parent_id == a && *parent_col == a_col);
        if matches {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_datagen::{imdb_catalog, stats_catalog, ImdbConfig, StatsConfig};
    use cardbench_engine::exact_cardinality;
    use cardbench_query::{JoinEdge, JoinQuery, Predicate, Region, TableMask};

    fn fast_cfg() -> NeuroCardConfig {
        NeuroCardConfig {
            sample_rows: 1500,
            max_bins: 16,
            ar: ArConfig {
                epochs: 2,
                samples: 120,
                ..ArConfig::default()
            },
            seed: 1,
        }
    }

    #[test]
    fn stats_schema_partitions_into_trees() {
        let db = Database::new(stats_catalog(&StatsConfig::tiny(1)));
        let parts = partition_schema(&db);
        // 12 edges, 8 tables: spanning tree covers 7, 5 leftovers.
        assert_eq!(parts.len(), 6);
        let covered: usize = parts.iter().map(|p| p.tables.len() - 1).sum();
        assert_eq!(covered, 12);
    }

    #[test]
    fn imdb_star_single_partition() {
        let db = Database::new(imdb_catalog(&ImdbConfig::tiny(1)));
        let parts = partition_schema(&db);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].tables.len(), 6);
        // Root is the hub.
        assert_eq!(parts[0].tables[0], db.catalog().table_id("title").unwrap());
    }

    #[test]
    fn two_table_estimate_on_star() {
        let db = Database::new(imdb_catalog(&ImdbConfig::tiny(1)));
        let est = NeuroCardE::fit(&db, &fast_cfg());
        let q = JoinQuery {
            tables: vec!["title".into(), "movie_companies".into()],
            joins: vec![JoinEdge::new(0, "id", 1, "movie_id")],
            predicates: vec![],
        };
        let truth = exact_cardinality(&db, &q).unwrap().max(1.0);
        let sub = SubPlanQuery {
            mask: TableMask::full(2),
            query: q,
        };
        let e = est.estimate(&db, &sub).max(1.0);
        let qerr = (e / truth).max(truth / e);
        assert!(qerr < 3.0, "qerr {qerr} (est {e}, true {truth})");
    }

    #[test]
    fn single_table_estimate() {
        let db = Database::new(imdb_catalog(&ImdbConfig::tiny(1)));
        let est = NeuroCardE::fit(&db, &fast_cfg());
        let q = JoinQuery::single("title", vec![Predicate::new(0, "kind_id", Region::eq(1))]);
        let truth = exact_cardinality(&db, &q).unwrap().max(1.0);
        let sub = SubPlanQuery {
            mask: TableMask::single(0),
            query: q,
        };
        let e = est.estimate(&db, &sub).max(1.0);
        // Single-table estimates through an FOJ sample are weak by
        // construction (paper O3); only require the right ballpark.
        let qerr = (e / truth).max(truth / e);
        assert!(qerr < 12.0, "qerr {qerr} (est {e}, true {truth})");
    }

    #[test]
    fn batch_bit_identical_to_sequential() {
        let db = Database::new(stats_catalog(&StatsConfig::tiny(1)));
        let est = NeuroCardE::fit(&db, &fast_cfg());
        let q = JoinQuery {
            tables: vec!["users".into(), "comments".into(), "badges".into()],
            joins: vec![
                JoinEdge::new(0, "Id", 1, "UserId"),
                JoinEdge::new(1, "UserId", 2, "UserId"),
            ],
            predicates: vec![Predicate::new(0, "Reputation", Region::ge(5))],
        };
        let subs: Vec<SubPlanQuery> = cardbench_query::connected_subsets(&q)
            .into_iter()
            .map(|m| SubPlanQuery::project(&q, m))
            .collect();
        let batched = est.estimate_batch(&db, &subs);
        assert_eq!(batched.len(), subs.len());
        for (sub, b) in subs.iter().zip(&batched) {
            let s = est.estimate(&db, sub);
            assert_eq!(
                s.to_bits(),
                b.to_bits(),
                "mask {:?}: sequential {s} vs batched {b}",
                sub.mask
            );
        }
    }

    #[test]
    fn cross_partition_query_still_estimates() {
        let db = Database::new(stats_catalog(&StatsConfig::tiny(1)));
        let est = NeuroCardE::fit(&db, &fast_cfg());
        // comments–badges rides the FK-FK leftover partition; adding
        // users forces stitching across partitions.
        let q = JoinQuery {
            tables: vec!["users".into(), "comments".into(), "badges".into()],
            joins: vec![
                JoinEdge::new(0, "Id", 1, "UserId"),
                JoinEdge::new(1, "UserId", 2, "UserId"),
            ],
            predicates: vec![],
        };
        let sub = SubPlanQuery {
            mask: TableMask::full(3),
            query: q,
        };
        let e = est.estimate(&db, &sub);
        assert!(e.is_finite() && e >= 0.0, "e = {e}");
    }
}
