//! MultiHist: multi-dimensional histograms over correlated attribute
//! groups (Poosala & Ioannidis style), join uniformity across tables.

use std::collections::BTreeMap;

use cardbench_engine::Database;
use cardbench_ml::{dependence_matrix, WeightBatch};
use cardbench_query::{BoundQuery, BoundTable, SubPlanQuery};
use cardbench_storage::TableId;

use crate::common::{region_weights, TableCoder};
use crate::fanout::uniform_join_card;
use crate::CardEst;

/// One attribute group's joint histogram over coarse bins.
#[derive(Debug, Clone)]
struct GroupHist {
    /// Model-column indices (into the table's coder) of the group.
    cols: Vec<usize>,
    /// The non-empty cells' bin keys and row counts, sorted by key: the
    /// sum over cells runs in one order on every fit.
    cells: Vec<(Vec<u16>, f64)>,
    total: f64,
}

impl GroupHist {
    /// `E[Π w]` over the group's joint distribution, for the weights of
    /// `item`.
    fn expectation(&self, weights: &WeightBatch, item: usize) -> f64 {
        if self.total <= 0.0 {
            return 0.0;
        }
        self.cells
            .iter()
            .map(|(key, cnt)| {
                let mut w = cnt / self.total;
                for (&bin, &mc) in key.iter().zip(&self.cols) {
                    if let Some(wv) = weights.get(item, mc) {
                        w *= wv[bin as usize];
                    }
                }
                w
            })
            .sum()
    }
}

/// The MultiHist estimator.
pub struct MultiHist {
    coders: Vec<TableCoder>,
    /// Per table: attribute groups with joint histograms.
    groups: Vec<Vec<GroupHist>>,
}

/// Bins per dimension.
const BINS: usize = 12;
/// Attributes with dependence above this are grouped together.
const GROUP_THRESHOLD: f64 = 0.25;
/// Maximum attributes per multi-dimensional histogram.
const MAX_GROUP: usize = 3;

impl MultiHist {
    /// Builds multi-dimensional histograms for every table.
    pub fn fit(db: &Database) -> MultiHist {
        let nt = db.catalog().table_count();
        let mut coders = Vec::with_capacity(nt);
        let mut groups = Vec::with_capacity(nt);
        for t in 0..nt {
            let coder = TableCoder::fit(db, TableId(t), BINS, false);
            let data = coder.binned(db, None);
            let table_groups = if data.is_empty() {
                Vec::new()
            } else {
                let dep = dependence_matrix(&data);
                greedy_groups(&dep, GROUP_THRESHOLD, MAX_GROUP)
                    .into_iter()
                    .map(|cols| {
                        let rows = data[0].len();
                        let mut cells: BTreeMap<Vec<u16>, f64> = BTreeMap::new();
                        // `r` walks rows across several columns at once;
                        // there is no single slice to iterate.
                        #[allow(clippy::needless_range_loop)]
                        for r in 0..rows {
                            let key: Vec<u16> = cols.iter().map(|&c| data[c][r]).collect();
                            *cells.entry(key).or_insert(0.0) += 1.0;
                        }
                        GroupHist {
                            cols,
                            cells: cells.into_iter().collect(),
                            total: rows as f64,
                        }
                    })
                    .collect()
            };
            coders.push(coder);
            groups.push(table_groups);
        }
        MultiHist { coders, groups }
    }

    /// One table's selectivity: its predicates' weights as the one item
    /// of `weights`, then the product of the constrained groups'
    /// expectations; 1.0 when a predicate is on an unmodeled attribute.
    fn table_selectivity(&self, bt: &BoundTable) -> f64 {
        let coder = &self.coders[bt.id.0];
        let (mut weights, mut region) = (WeightBatch::default(), Vec::new());
        weights.reset(coder.columns.len());
        let item = weights.push_item();
        for p in &bt.predicates {
            let Some(mc) = coder.attr_column(p.column) else {
                return 1.0;
            };
            region_weights(&coder.discretizers[mc], &p.region, &mut region);
            weights.merge(item, mc, &region);
        }
        self.groups[bt.id.0]
            .iter()
            .map(|g| {
                if g.cols.iter().all(|&c| weights.get(item, c).is_none()) {
                    1.0
                } else {
                    g.expectation(&weights, item)
                }
            })
            .product()
    }
}

impl CardEst for MultiHist {
    fn name(&self) -> &'static str {
        "MultiHist"
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        let Ok(bound) = BoundQuery::bind(&sub.query, db.catalog()) else {
            return 1.0;
        };
        let sels: Vec<f64> = bound
            .tables
            .iter()
            .map(|bt| self.table_selectivity(bt))
            .collect();
        uniform_join_card(db, &bound, &sels)
    }

    fn model_size_bytes(&self) -> usize {
        self.groups
            .iter()
            .flatten()
            .map(|g| g.cells.len() * (g.cols.len() * 2 + 8))
            .sum::<usize>()
            + self
                .coders
                .iter()
                .map(TableCoder::size_bytes)
                .sum::<usize>()
    }
}

/// Greedy grouping: repeatedly seed a group with the most-dependent
/// remaining pair, grow it up to `max_group`, then continue; leftovers
/// become singletons.
fn greedy_groups(dep: &[Vec<f64>], threshold: f64, max_group: usize) -> Vec<Vec<usize>> {
    let k = dep.len();
    let mut used = vec![false; k];
    let mut out = Vec::new();
    loop {
        // Best unused pair.
        let mut best: Option<(f64, usize, usize)> = None;
        for i in 0..k {
            for j in i + 1..k {
                if !used[i]
                    && !used[j]
                    && dep[i][j] >= threshold
                    && best.is_none_or(|(d, _, _)| dep[i][j] > d)
                {
                    best = Some((dep[i][j], i, j));
                }
            }
        }
        let Some((_, i, j)) = best else { break };
        let mut group = vec![i, j];
        used[i] = true;
        used[j] = true;
        while group.len() < max_group {
            // Most dependent unused attribute to the group.
            let mut cand: Option<(f64, usize)> = None;
            for m in 0..k {
                if used[m] {
                    continue;
                }
                let score = group.iter().map(|&g| dep[g][m]).fold(f64::MIN, f64::max);
                if score >= threshold && cand.is_none_or(|(s, _)| score > s) {
                    cand = Some((score, m));
                }
            }
            match cand {
                Some((_, m)) => {
                    group.push(m);
                    used[m] = true;
                }
                None => break,
            }
        }
        group.sort_unstable();
        out.push(group);
    }
    for (i, &u) in used.iter().enumerate() {
        if !u {
            out.push(vec![i]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_correlated_pairs() {
        let dep = vec![
            vec![1.0, 0.9, 0.0],
            vec![0.9, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
        ];
        let g = greedy_groups(&dep, 0.3, 3);
        assert_eq!(g, vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn respects_max_group() {
        let dep = vec![vec![1.0; 4]; 4];
        let g = greedy_groups(&dep, 0.3, 2);
        assert!(g.iter().all(|grp| grp.len() <= 2));
        let total: usize = g.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn all_independent_gives_singletons() {
        let mut dep = vec![vec![0.0; 3]; 3];
        for (i, row) in dep.iter_mut().enumerate() {
            row[i] = 1.0;
        }
        let g = greedy_groups(&dep, 0.3, 3);
        assert_eq!(g.len(), 3);
    }
}
