//! The simplified-IMDB dataset behind the JOB-LIGHT workload: 6 tables,
//! 8 filterable attributes (1–2 per table), and a pure star schema — every
//! satellite table joins `title.id` via a foreign key (5 PK-FK relations).
//!
//! Compared with the STATS profile, skew and correlation are milder,
//! reproducing the paper's point that JOB-LIGHT under-separates estimators
//! (observation O2).

use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};

use cardbench_storage::{
    Catalog, ColumnDef, ColumnKind, Datum, JoinKind, JoinRelation, Table, TableSchema,
};

use crate::dist::{LatentRowModel, Zipf};

/// Scaled-down base row counts preserving the relative sizes of the IMDB
/// subset (title is the hub; cast_info the largest satellite).
const BASE_ROWS: [(&str, usize); 6] = [
    ("title", 60_000),
    ("movie_companies", 62_000),
    ("cast_info", 200_000),
    ("movie_info", 140_000),
    ("movie_info_idx", 33_000),
    ("movie_keyword", 108_000),
];

/// Configuration of the simplified-IMDB generator.
#[derive(Debug, Clone)]
pub struct ImdbConfig {
    /// Row-count multiplier versus `BASE_ROWS`.
    pub scale: f64,
    /// RNG seed.
    pub seed: u64,
    /// Zipf exponent of attribute marginals (milder than STATS).
    pub attr_skew: f64,
    /// Zipf exponent of join-key degrees.
    pub key_skew: f64,
    /// Latent coupling (milder than STATS).
    pub coupling: f64,
}

impl Default for ImdbConfig {
    fn default() -> Self {
        ImdbConfig {
            scale: 0.05,
            seed: 0xBEEF,
            attr_skew: 1.1,
            key_skew: 0.35,
            coupling: 0.4,
        }
    }
}

impl ImdbConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny(seed: u64) -> ImdbConfig {
        ImdbConfig {
            scale: 0.005,
            seed,
            ..ImdbConfig::default()
        }
    }

    /// Scaled row count of a table.
    pub fn rows_of(&self, table: &str) -> usize {
        let base = BASE_ROWS
            .iter()
            .find(|(n, _)| *n == table)
            .map(|(_, r)| *r)
            .expect("known table");
        ((base as f64 * self.scale).round() as usize).max(8)
    }
}

/// The 5 star-join relations of the simplified IMDB schema.
pub fn imdb_joins() -> Vec<JoinRelation> {
    [
        "movie_companies",
        "cast_info",
        "movie_info",
        "movie_info_idx",
        "movie_keyword",
    ]
    .into_iter()
    .map(|t| JoinRelation::new("title", "id", t, "movie_id", JoinKind::PkFk))
    .collect()
}

fn satellite_schema(name: &str, attrs: &[&str]) -> TableSchema {
    let mut cols = vec![
        ColumnDef::new("id", ColumnKind::PrimaryKey),
        ColumnDef::new("movie_id", ColumnKind::ForeignKey),
    ];
    for a in attrs {
        cols.push(ColumnDef::new(*a, ColumnKind::Categorical));
    }
    TableSchema::new(name, cols)
}

/// Generates the simplified-IMDB catalog.
pub fn imdb_catalog(cfg: &ImdbConfig) -> Catalog {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = LatentRowModel::new(128, 0.0, cfg.coupling);

    let n_title = cfg.rows_of("title");
    let mut title_latent = Vec::with_capacity(n_title);
    let kind_zipf = Zipf::new(7, 1.0);
    let year_zipf = Zipf::new(130, cfg.attr_skew);
    let mut title = Table::empty(TableSchema::new(
        "title",
        vec![
            ColumnDef::new("id", ColumnKind::PrimaryKey),
            ColumnDef::new("kind_id", ColumnKind::Categorical),
            ColumnDef::new("production_year", ColumnKind::Numeric),
        ],
    ));
    for tid in 0..n_title {
        let z = model.draw_latent(&mut rng);
        let kind = kind_zipf.sample(&mut rng) as i64 + 1;
        // Years cluster toward the recent end (rank 0 = most recent).
        let year = 2019 - model.draw_attr(&mut rng, z, 130, cfg.attr_skew, &year_zipf);
        let year: Datum = if rng.gen::<f64>() < 0.05 {
            None
        } else {
            Some(year)
        };
        title
            .append_row(&[Some(tid as i64 + 1), Some(kind), year])
            .expect("arity");
        title_latent.push(z);
    }
    let mut order: Vec<usize> = (0..n_title).collect();
    order.sort_by(|&a, &b| {
        title_latent[b]
            .partial_cmp(&title_latent[a])
            .expect("latents are finite")
    });
    let pop = Zipf::new(n_title, cfg.key_skew);

    let mut catalog = Catalog::new();
    catalog.add_table(title);

    let satellites: [(&str, &[&str], usize); 5] = [
        ("movie_companies", &["company_type_id"], 5),
        ("cast_info", &["role_id", "nr_order"], 12),
        ("movie_info", &["info_type_id"], 110),
        ("movie_info_idx", &["info_type_id"], 5),
        ("movie_keyword", &["keyword_id"], 1500),
    ];
    for (name, attrs, domain) in satellites {
        let schema = satellite_schema(name, attrs);
        let mut t = Table::empty(schema);
        let attr_zipfs: Vec<Zipf> = attrs
            .iter()
            .map(|_| Zipf::new(domain, cfg.attr_skew))
            .collect();
        for rid in 0..cfg.rows_of(name) {
            let movie = order[pop.sample(&mut rng)];
            let z = title_latent[movie];
            let mut row: Vec<Datum> = vec![Some(rid as i64 + 1), Some(movie as i64 + 1)];
            for az in &attr_zipfs {
                row.push(Some(
                    model.draw_attr(&mut rng, z, domain, cfg.attr_skew, az) + 1,
                ));
            }
            t.append_row(&row).expect("arity");
        }
        catalog.add_table(t);
    }
    for j in imdb_joins() {
        catalog.add_join(j).expect("tables exist");
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_tables_five_star_joins() {
        let c = imdb_catalog(&ImdbConfig::tiny(3));
        assert_eq!(c.table_count(), 6);
        assert_eq!(c.joins().len(), 5);
        for j in c.joins() {
            assert_eq!(j.left_table, "title");
        }
    }

    #[test]
    fn eight_filterable_attributes_max_two_per_table() {
        let c = imdb_catalog(&ImdbConfig::tiny(3));
        let counts: Vec<usize> = c
            .tables()
            .iter()
            .map(|t| t.schema().filterable_columns().len())
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 8);
        assert!(counts.iter().all(|&k| (1..=2).contains(&k)));
    }

    #[test]
    fn deterministic() {
        let a = imdb_catalog(&ImdbConfig::tiny(11));
        let b = imdb_catalog(&ImdbConfig::tiny(11));
        for (ta, tb) in a.tables().iter().zip(b.tables()) {
            assert_eq!(ta.row_count(), tb.row_count());
            for r in 0..ta.row_count().min(20) {
                assert_eq!(ta.row(r), tb.row(r));
            }
        }
    }

    #[test]
    fn fk_integrity() {
        let c = imdb_catalog(&ImdbConfig::tiny(5));
        let n_title = c.table_by_name("title").unwrap().row_count() as i64;
        let ci = c.table_by_name("cast_info").unwrap();
        let col = ci.column_by_name("movie_id").unwrap();
        for r in 0..ci.row_count() {
            let v = col.get(r).unwrap();
            assert!(v >= 1 && v <= n_title);
        }
    }
}
