//! Dataset profiling — the statistics of paper Table 1.

use std::collections::HashMap;

use cardbench_storage::{Catalog, Table};
use cardbench_support::stats::pearson;

use crate::dist::skewness;

/// The per-dataset statistics reported in paper Table 1.
#[derive(Debug, Clone)]
pub struct DatasetProfile {
    /// Dataset label.
    pub name: String,
    /// Number of tables.
    pub table_count: usize,
    /// Number of filterable (n./c.) attributes across all tables.
    pub nc_attr_count: usize,
    /// Minimum filterable attributes in any table.
    pub attrs_per_table_min: usize,
    /// Maximum filterable attributes in any table.
    pub attrs_per_table_max: usize,
    /// Full-outer-join size over a BFS spanning tree of the schema graph
    /// (the paper's cyclic extra edges are excluded; see EXPERIMENTS.md).
    pub full_join_size: f64,
    /// Sum of distinct-value counts over all filterable attributes.
    pub total_domain_size: usize,
    /// Average moment skewness over filterable attributes.
    pub avg_skewness: f64,
    /// Average |Pearson| over intra-table filterable attribute pairs.
    pub avg_abs_correlation: f64,
    /// Number of schema join relations.
    pub join_relation_count: usize,
    /// "star" when every relation shares one hub table, else "star/chain/mixed".
    pub join_forms: String,
}

/// Computes the profile of a catalog.
pub fn dataset_profile(name: &str, catalog: &Catalog) -> DatasetProfile {
    let per_table: Vec<usize> = catalog
        .tables()
        .iter()
        .map(|t| t.schema().filterable_columns().len())
        .collect();

    let mut total_domain = 0usize;
    let mut skews = Vec::new();
    let mut corrs = Vec::new();
    for table in catalog.tables() {
        let filt = table.schema().filterable_columns();
        for &ci in &filt {
            let col = table.column(ci);
            let stats = col.compute_stats();
            total_domain += stats.distinct_count;
            let vals: Vec<f64> = col.iter().flatten().map(|v| v as f64).collect();
            if vals.len() >= 2 {
                skews.push(skewness(vals.iter().copied()));
            }
        }
        // Pairwise correlation computed over rows where both are non-null.
        for i in 0..filt.len() {
            for j in i + 1..filt.len() {
                let (xs, ys) = paired_non_null(table, filt[i], filt[j]);
                if xs.len() >= 2 {
                    corrs.push(pearson(&xs, &ys).abs());
                }
            }
        }
    }

    let hub_star = is_pure_star(catalog);
    DatasetProfile {
        name: name.to_string(),
        table_count: catalog.table_count(),
        nc_attr_count: per_table.iter().sum(),
        attrs_per_table_min: per_table.iter().copied().min().unwrap_or(0),
        attrs_per_table_max: per_table.iter().copied().max().unwrap_or(0),
        full_join_size: spanning_tree_join_size(catalog),
        total_domain_size: total_domain,
        avg_skewness: mean(&skews),
        avg_abs_correlation: mean(&corrs),
        join_relation_count: catalog.joins().len(),
        join_forms: if hub_star {
            "star".to_string()
        } else {
            "star/chain/mixed".to_string()
        },
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn paired_non_null(table: &Table, a: usize, b: usize) -> (Vec<f64>, Vec<f64>) {
    let ca = table.column(a);
    let cb = table.column(b);
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for r in 0..table.row_count() {
        if let (Some(x), Some(y)) = (ca.get(r), cb.get(r)) {
            xs.push(x as f64);
            ys.push(y as f64);
        }
    }
    (xs, ys)
}

fn is_pure_star(catalog: &Catalog) -> bool {
    let joins = catalog.joins();
    if joins.is_empty() {
        return false;
    }
    catalog.tables().iter().any(|hub| {
        joins
            .iter()
            .all(|j| j.left_table == hub.name() || j.right_table == hub.name())
    })
}

/// Full-outer-join size over a BFS spanning tree of the schema graph
/// (paper Table 1's "full outer join size"), computed bottom-up: each
/// row's weight is the number of FOJ combinations of its subtree that
/// include it — the product over child edges of `max(matched child
/// weight, 1)` (an unmatched branch contributes one NULL-padded way) —
/// and child rows matching no parent are NULL-padded dangling rows added
/// directly to the total. Overflow-safe via `f64`.
#[allow(clippy::needless_range_loop)] // row ids index parallel weight vectors
pub fn spanning_tree_join_size(catalog: &Catalog) -> f64 {
    let n = catalog.table_count();
    if n == 0 {
        return 0.0;
    }
    // Build spanning tree by BFS over join relations.
    let mut parent: Vec<Option<(usize, usize, usize)>> = vec![None; n]; // (parent, child_col, parent_col)
    let mut visited = vec![false; n];
    let mut order = vec![0usize];
    visited[0] = true;
    let mut qi = 0;
    while qi < order.len() {
        let cur = qi;
        let cur_table = order[cur];
        qi += 1;
        let cur_name = catalog.tables()[cur_table].name().to_string();
        for j in catalog.joins() {
            let (other_name, my_col, other_col) = if j.left_table == cur_name {
                (&j.right_table, &j.left_column, &j.right_column)
            } else if j.right_table == cur_name {
                (&j.left_table, &j.right_column, &j.left_column)
            } else {
                continue;
            };
            let other = catalog.table_id(other_name).expect("table exists").0;
            if !visited[other] {
                visited[other] = true;
                let child_schema = catalog.tables()[other].schema();
                let my_schema = catalog.tables()[cur_table].schema();
                parent[other] = Some((
                    cur_table,
                    child_schema.column_index(other_col).expect("join col"),
                    my_schema.column_index(my_col).expect("join col"),
                ));
                order.push(other);
            }
        }
    }

    // Bottom-up weights (reverse BFS order), only over visited tables.
    let mut weights: Vec<Vec<f64>> = catalog
        .tables()
        .iter()
        .map(|t| vec![1.0f64; t.row_count()])
        .collect();
    let mut dangling = 0.0f64;
    for &t in order.iter().rev() {
        if let Some((p, child_col, parent_col)) = parent[t] {
            let child = &catalog.tables()[t];
            // Sum child weights per key value.
            let mut by_key: HashMap<i64, f64> = HashMap::new();
            let col = child.column(child_col);
            for r in 0..child.row_count() {
                if let Some(v) = col.get(r) {
                    *by_key.entry(v).or_insert(0.0) += weights[t][r];
                }
            }
            let ptab = &catalog.tables()[p];
            let pcol = ptab.column(parent_col);
            let mut parent_keys: std::collections::HashSet<i64> = std::collections::HashSet::new();
            for r in 0..ptab.row_count() {
                let m = pcol
                    .get(r)
                    .and_then(|v| by_key.get(&v).copied())
                    .unwrap_or(0.0);
                // Outer semantics: an unmatched branch keeps the parent row
                // alive with one NULL-padded combination.
                weights[p][r] *= m.max(1.0);
                if let Some(v) = pcol.get(r) {
                    parent_keys.insert(v);
                }
            }
            // Child rows with NULL keys or keys absent from the parent are
            // NULL-padded dangling FOJ rows.
            for r in 0..child.row_count() {
                match col.get(r) {
                    Some(v) if parent_keys.contains(&v) => {}
                    _ => dangling += weights[t][r],
                }
            }
        }
    }
    weights[order[0]].iter().sum::<f64>() + dangling
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::imdb::{imdb_catalog, ImdbConfig};
    use crate::stats::{stats_catalog, StatsConfig};
    use cardbench_storage::{Column, ColumnDef, ColumnKind, JoinKind, JoinRelation, TableSchema};

    #[test]
    fn spanning_join_size_matches_manual() {
        // a(id) 1..3; b(aid) = [1,1,2] → inner pairs 3, plus a.id=3
        // surviving NULL-padded → full outer join size 4.
        let mut c = Catalog::new();
        c.add_table(
            Table::from_columns(
                TableSchema::new("a", vec![ColumnDef::new("id", ColumnKind::PrimaryKey)]),
                vec![Column::from_values(vec![1, 2, 3])],
            )
            .unwrap(),
        );
        c.add_table(
            Table::from_columns(
                TableSchema::new("b", vec![ColumnDef::new("aid", ColumnKind::ForeignKey)]),
                vec![Column::from_values(vec![1, 1, 2])],
            )
            .unwrap(),
        );
        c.add_join(JoinRelation::new("a", "id", "b", "aid", JoinKind::PkFk))
            .unwrap();
        assert_eq!(spanning_tree_join_size(&c), 4.0);
    }

    #[test]
    fn stats_profile_dominates_imdb_profile() {
        let stats = dataset_profile("STATS", &stats_catalog(&StatsConfig::tiny(2)));
        let imdb = dataset_profile("IMDB", &imdb_catalog(&ImdbConfig::tiny(2)));
        assert_eq!(stats.table_count, 8);
        assert_eq!(imdb.table_count, 6);
        assert_eq!(stats.nc_attr_count, 23);
        assert_eq!(imdb.nc_attr_count, 8);
        assert_eq!(stats.join_relation_count, 12);
        assert_eq!(imdb.join_relation_count, 5);
        assert_eq!(imdb.join_forms, "star");
        assert_eq!(stats.join_forms, "star/chain/mixed");
        // The two headline data-complexity criteria of Table 1.
        assert!(
            stats.avg_skewness > imdb.avg_skewness,
            "skew: stats {} vs imdb {}",
            stats.avg_skewness,
            imdb.avg_skewness
        );
        assert!(
            stats.avg_abs_correlation > imdb.avg_abs_correlation,
            "corr: stats {} vs imdb {}",
            stats.avg_abs_correlation,
            imdb.avg_abs_correlation
        );
    }

    #[test]
    fn join_size_positive_on_generated_data() {
        let c = stats_catalog(&StatsConfig::tiny(4));
        assert!(spanning_tree_join_size(&c) > 0.0);
    }
}
