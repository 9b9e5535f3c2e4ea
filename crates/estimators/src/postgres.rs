//! The PostgreSQL baseline: per-attribute 1-D statistics (most-common
//! values + equi-depth histogram + null fraction), attribute
//! independence within a table, and join uniformity across tables.

use std::collections::HashMap;

use cardbench_engine::Database;
use cardbench_query::{BoundQuery, Region, SubPlanQuery};
use cardbench_storage::TableId;

use crate::fanout::uniform_join_card;
use crate::CardEst;

/// 1-D statistics of one column, PostgreSQL `pg_stats` style.
#[derive(Debug, Clone)]
pub struct ColumnHist {
    /// Fraction of NULL rows.
    pub null_frac: f64,
    /// Most common values with their row fractions.
    pub mcvs: Vec<(i64, f64)>,
    /// Equi-depth histogram bounds over the non-MCV values
    /// (`k+1` bounds delimit `k` equal-mass buckets).
    pub bounds: Vec<i64>,
    /// Total row fraction covered by the histogram (non-null, non-MCV).
    pub hist_frac: f64,
}

impl ColumnHist {
    /// Builds statistics from raw column values.
    pub fn fit(values: &[Option<i64>], mcv_count: usize, buckets: usize) -> ColumnHist {
        let n = values.len().max(1);
        let non_null: Vec<i64> = values.iter().flatten().copied().collect();
        let null_frac = 1.0 - non_null.len() as f64 / n as f64;
        let mut freq: HashMap<i64, usize> = HashMap::new();
        for &v in &non_null {
            *freq.entry(v).or_insert(0) += 1;
        }
        let mut by_freq: Vec<(i64, usize)> = freq.into_iter().collect();
        by_freq.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let mcvs: Vec<(i64, f64)> = by_freq
            .iter()
            .take(mcv_count)
            .filter(|(_, c)| *c > 1)
            .map(|&(v, c)| (v, c as f64 / n as f64))
            .collect();
        let mcv_set: std::collections::HashSet<i64> = mcvs.iter().map(|&(v, _)| v).collect();
        let mut rest: Vec<i64> = non_null
            .iter()
            .copied()
            .filter(|v| !mcv_set.contains(v))
            .collect();
        rest.sort_unstable();
        let hist_frac = rest.len() as f64 / n as f64;
        let bounds = if rest.is_empty() {
            Vec::new()
        } else {
            let k = buckets.min(rest.len());
            let mut b = Vec::with_capacity(k + 1);
            for i in 0..=k {
                let idx = ((i * (rest.len() - 1)) as f64 / k as f64).round() as usize;
                b.push(rest[idx]);
            }
            b
        };
        ColumnHist {
            null_frac,
            mcvs,
            bounds,
            hist_frac,
        }
    }

    /// Selectivity of a region under these statistics.
    pub fn selectivity(&self, region: &Region) -> f64 {
        let mcv_mass: f64 = self
            .mcvs
            .iter()
            .filter(|(v, _)| region.contains(*v))
            .map(|(_, f)| f)
            .sum();
        let hist_mass = self.hist_frac * self.hist_fraction(region);
        (mcv_mass + hist_mass).clamp(0.0, 1.0)
    }

    /// Fraction of the histogram mass inside the region, with linear
    /// interpolation within buckets (PostgreSQL's `ineq_histogram_selectivity`).
    fn hist_fraction(&self, region: &Region) -> f64 {
        if self.bounds.len() < 2 {
            return 0.0;
        }
        match region {
            Region::Range { lo, hi } => {
                (self.cdf(*hi, true) - self.cdf(lo.saturating_sub(1), true)).clamp(0.0, 1.0)
            }
            Region::In(vals) => {
                // Each equality contributes roughly one distinct value's
                // share of its bucket; approximate with bucket width.
                vals.iter()
                    .map(|&v| (self.cdf(v, true) - self.cdf(v.saturating_sub(1), true)).max(0.0))
                    .sum::<f64>()
                    .clamp(0.0, 1.0)
            }
        }
    }

    /// Interpolated CDF at `v` over the histogram.
    fn cdf(&self, v: i64, interpolate: bool) -> f64 {
        let b = &self.bounds;
        let k = (b.len() - 1) as f64;
        if v < b[0] {
            return 0.0;
        }
        if v >= *b.last().expect("at least one bound") {
            return 1.0;
        }
        // Find the bucket containing v.
        let i = b.partition_point(|&x| x <= v) - 1;
        let lo = b[i];
        let hi = b[i + 1];
        let within = if hi > lo && interpolate {
            (v - lo) as f64 / (hi - lo) as f64
        } else {
            0.5
        };
        (i as f64 + within) / k
    }
}

/// The PostgreSQL-style estimator.
pub struct PostgresEst {
    /// `hists[table][base column] → stats` for filterable columns.
    hists: Vec<HashMap<usize, ColumnHist>>,
}

impl PostgresEst {
    /// Collects statistics from the database (ANALYZE).
    pub fn fit(db: &Database) -> PostgresEst {
        let mut hists = Vec::with_capacity(db.catalog().table_count());
        for t in 0..db.catalog().table_count() {
            let table = db.catalog().table(TableId(t));
            let mut per_col = HashMap::new();
            for c in table.schema().filterable_columns() {
                let values: Vec<Option<i64>> = table.column(c).iter().collect();
                per_col.insert(c, ColumnHist::fit(&values, 20, 50));
            }
            hists.push(per_col);
        }
        PostgresEst { hists }
    }

    /// Per-table selectivity under attribute independence.
    pub fn table_selectivity(&self, table: TableId, preds: &[(usize, &Region)]) -> f64 {
        preds
            .iter()
            .map(|(c, region)| {
                self.hists[table.0]
                    .get(c)
                    .map_or(1.0, |h| h.selectivity(region))
            })
            .product()
    }
}

impl CardEst for PostgresEst {
    fn name(&self) -> &'static str {
        "PostgreSQL"
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        let Ok(bound) = BoundQuery::bind(&sub.query, db.catalog()) else {
            return 1.0;
        };
        let sels: Vec<f64> = bound
            .tables
            .iter()
            .map(|bt| {
                let preds: Vec<(usize, &Region)> = bt
                    .predicates
                    .iter()
                    .map(|p| (p.column, &p.region))
                    .collect();
                self.table_selectivity(bt.id, &preds)
            })
            .collect();
        uniform_join_card(db, &bound, &sels)
    }

    fn model_size_bytes(&self) -> usize {
        self.hists
            .iter()
            .flat_map(|m| m.values())
            .map(|h| h.mcvs.len() * 16 + h.bounds.len() * 8 + 16)
            .sum()
    }

    fn apply_inserts(&mut self, db: &Database, _delta: &[cardbench_storage::Table]) {
        // PostgreSQL re-ANALYZEs: statistics are cheap to rebuild.
        *self = PostgresEst::fit(db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_column_range_selectivity() {
        let values: Vec<Option<i64>> = (0..1000).map(Some).collect();
        let h = ColumnHist::fit(&values, 10, 20);
        let sel = h.selectivity(&Region::between(0, 499));
        assert!((sel - 0.5).abs() < 0.05, "sel {sel}");
    }

    #[test]
    fn mcv_equality_is_exact() {
        // Value 7 appears 300/1000 times.
        let mut values: Vec<Option<i64>> = vec![Some(7); 300];
        values.extend((0..700).map(|i| Some(i + 1000)));
        let h = ColumnHist::fit(&values, 10, 20);
        let sel = h.selectivity(&Region::eq(7));
        assert!((sel - 0.3).abs() < 0.01, "sel {sel}");
    }

    #[test]
    fn null_fraction_reduces_selectivity() {
        let mut values: Vec<Option<i64>> = vec![None; 500];
        values.extend((0..500).map(Some));
        let h = ColumnHist::fit(&values, 5, 10);
        let sel = h.selectivity(&Region::between(i64::MIN, i64::MAX));
        assert!((sel - 0.5).abs() < 0.05, "sel {sel}");
    }

    #[test]
    fn empty_region_zero() {
        let values: Vec<Option<i64>> = (0..100).map(Some).collect();
        let h = ColumnHist::fit(&values, 5, 10);
        assert_eq!(h.selectivity(&Region::between(500, 600)), 0.0);
    }

    #[test]
    fn selectivity_monotone_in_range_width() {
        let values: Vec<Option<i64>> = (0..1000).map(|i| Some(i % 137)).collect();
        let h = ColumnHist::fit(&values, 10, 20);
        let narrow = h.selectivity(&Region::between(10, 20));
        let wide = h.selectivity(&Region::between(10, 120));
        assert!(wide >= narrow);
    }
}
