//! The STATS-profile dataset: 8 tables, 23 filterable n./c. attributes,
//! and the 12 join relations of paper Figure 1 (11 PK-FK + 1 FK-FK),
//! giving a *cyclic* schema graph with chain, star and mixed join forms.
//!
//! Row counts default to `scale ×` the real STATS table sizes. Value
//! generation plants the properties the paper's analysis depends on:
//! Zipf-skewed marginals, latent-coupled intra-table correlation, and
//! join keys whose degree ranges from zero to hundreds of matches (the
//! skew paper observation O3 attributes NeuroCard's failure to).

use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};

use cardbench_storage::{
    Catalog, ColumnDef, ColumnKind, Datum, JoinKind, JoinRelation, Table, TableSchema,
};

use crate::dist::{LatentRowModel, Zipf};

/// Draws a child timestamp: soon after `parent` with a heavy bias toward
/// small gaps (comments/votes arrive shortly after the post), keeping the
/// temporal split near the 50% the paper's update experiment uses.
fn child_date(rng: &mut StdRng, parent: i64) -> i64 {
    let gap = ((DAYS_MAX - parent) as f64 * rng.gen::<f64>().powi(4)) as i64;
    (parent + gap).min(DAYS_MAX - 1)
}

/// Real STATS row counts the generator scales from.
const REAL_ROWS: [(&str, usize); 8] = [
    ("users", 40_325),
    ("posts", 91_976),
    ("comments", 174_305),
    ("badges", 79_851),
    ("votes", 328_064),
    ("postHistory", 303_187),
    ("postLinks", 11_102),
    ("tags", 1_032),
];

/// Day-resolution timestamp domain (8 years of forum activity).
pub const DAYS_MAX: i64 = 2920;

/// The temporal cutoff used by the dynamic-update experiment (paper
/// Table 6 trains on tuples "created before 2014, roughly 50%").
pub const SPLIT_DAY: i64 = DAYS_MAX / 2;

/// Zipf exponent of attribute marginals. Over bounded domains it caps
/// the average moment skewness near 3, well under real STATS' ≈21.8.
const ATTR_SKEW: f64 = 1.6;
/// Zipf exponent of join-key degree distributions.
const KEY_SKEW: f64 = 1.1;

/// Configuration of the STATS-profile generator.
#[derive(Debug, Clone)]
pub struct StatsConfig {
    /// Row-count multiplier versus the real STATS sizes. `0.01` builds a
    /// ~10k-row database suitable for tests; `0.05`–`0.2` for benchmarks.
    pub scale: f64,
    /// RNG seed; the dataset is a pure function of the config.
    pub seed: u64,
    /// Latent coupling planting intra-table correlation (≈0.22 avg |r|).
    pub coupling: f64,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            scale: 0.02,
            seed: 0xC0FFEE,
            coupling: 0.75,
        }
    }
}

impl StatsConfig {
    /// A tiny configuration for unit tests (~1.5k rows total).
    pub fn tiny(seed: u64) -> StatsConfig {
        StatsConfig {
            scale: 0.002,
            seed,
            ..StatsConfig::default()
        }
    }

    /// Scaled row count of a table.
    pub fn rows_of(&self, table: &str) -> usize {
        let real = REAL_ROWS
            .iter()
            .find(|(n, _)| *n == table)
            .map(|(_, r)| *r)
            .expect("known table");
        ((real as f64 * self.scale).round() as usize).max(8)
    }
}

/// Date column per table, used by the temporal split of the update
/// experiment. `tags` is static (no date column in real STATS either).
pub const DATE_COLUMNS: [(&str, Option<&str>); 8] = [
    ("users", Some("CreationDate")),
    ("posts", Some("CreationDate")),
    ("comments", Some("CreationDate")),
    ("badges", Some("Date")),
    ("votes", Some("CreationDate")),
    ("postHistory", Some("CreationDate")),
    ("postLinks", Some("CreationDate")),
    ("tags", None),
];

fn schema_users() -> TableSchema {
    TableSchema::new(
        "users",
        vec![
            ColumnDef::new("Id", ColumnKind::PrimaryKey),
            ColumnDef::new("Reputation", ColumnKind::Numeric),
            ColumnDef::new("CreationDate", ColumnKind::Numeric),
            ColumnDef::new("Views", ColumnKind::Numeric),
            ColumnDef::new("UpVotes", ColumnKind::Numeric),
        ],
    )
}

fn schema_posts() -> TableSchema {
    TableSchema::new(
        "posts",
        vec![
            ColumnDef::new("Id", ColumnKind::PrimaryKey),
            ColumnDef::new("OwnerUserId", ColumnKind::ForeignKey),
            ColumnDef::new("PostTypeId", ColumnKind::Categorical),
            ColumnDef::new("CreationDate", ColumnKind::Numeric),
            ColumnDef::new("Score", ColumnKind::Numeric),
            ColumnDef::new("ViewCount", ColumnKind::Numeric),
            ColumnDef::new("AnswerCount", ColumnKind::Numeric),
            ColumnDef::new("CommentCount", ColumnKind::Numeric),
            ColumnDef::new("FavoriteCount", ColumnKind::Numeric),
            ColumnDef::new("LastActivityDate", ColumnKind::Numeric),
        ],
    )
}

fn schema_comments() -> TableSchema {
    TableSchema::new(
        "comments",
        vec![
            ColumnDef::new("Id", ColumnKind::PrimaryKey),
            ColumnDef::new("PostId", ColumnKind::ForeignKey),
            ColumnDef::new("UserId", ColumnKind::ForeignKey),
            ColumnDef::new("Score", ColumnKind::Numeric),
            ColumnDef::new("CreationDate", ColumnKind::Numeric),
        ],
    )
}

fn schema_badges() -> TableSchema {
    TableSchema::new(
        "badges",
        vec![
            ColumnDef::new("Id", ColumnKind::PrimaryKey),
            ColumnDef::new("UserId", ColumnKind::ForeignKey),
            ColumnDef::new("Date", ColumnKind::Numeric),
        ],
    )
}

fn schema_votes() -> TableSchema {
    TableSchema::new(
        "votes",
        vec![
            ColumnDef::new("Id", ColumnKind::PrimaryKey),
            ColumnDef::new("PostId", ColumnKind::ForeignKey),
            ColumnDef::new("UserId", ColumnKind::ForeignKey),
            ColumnDef::new("VoteTypeId", ColumnKind::Categorical),
            ColumnDef::new("CreationDate", ColumnKind::Numeric),
            ColumnDef::new("BountyAmount", ColumnKind::Numeric),
        ],
    )
}

fn schema_post_history() -> TableSchema {
    TableSchema::new(
        "postHistory",
        vec![
            ColumnDef::new("Id", ColumnKind::PrimaryKey),
            ColumnDef::new("PostId", ColumnKind::ForeignKey),
            ColumnDef::new("UserId", ColumnKind::ForeignKey),
            ColumnDef::new("PostHistoryTypeId", ColumnKind::Categorical),
            ColumnDef::new("CreationDate", ColumnKind::Numeric),
        ],
    )
}

fn schema_post_links() -> TableSchema {
    TableSchema::new(
        "postLinks",
        vec![
            ColumnDef::new("Id", ColumnKind::PrimaryKey),
            ColumnDef::new("PostId", ColumnKind::ForeignKey),
            ColumnDef::new("RelatedPostId", ColumnKind::ForeignKey),
            ColumnDef::new("LinkTypeId", ColumnKind::Categorical),
            ColumnDef::new("CreationDate", ColumnKind::Numeric),
        ],
    )
}

fn schema_tags() -> TableSchema {
    TableSchema::new(
        "tags",
        vec![
            ColumnDef::new("Id", ColumnKind::PrimaryKey),
            ColumnDef::new("ExcerptPostId", ColumnKind::ForeignKey),
            ColumnDef::new("Count", ColumnKind::Numeric),
        ],
    )
}

/// The 12 join relations of paper Figure 1.
pub fn stats_joins() -> Vec<JoinRelation> {
    use JoinKind::{FkFk, PkFk};
    vec![
        JoinRelation::new("users", "Id", "posts", "OwnerUserId", PkFk),
        JoinRelation::new("users", "Id", "comments", "UserId", PkFk),
        JoinRelation::new("users", "Id", "badges", "UserId", PkFk),
        JoinRelation::new("users", "Id", "votes", "UserId", PkFk),
        JoinRelation::new("users", "Id", "postHistory", "UserId", PkFk),
        JoinRelation::new("posts", "Id", "comments", "PostId", PkFk),
        JoinRelation::new("posts", "Id", "votes", "PostId", PkFk),
        JoinRelation::new("posts", "Id", "postHistory", "PostId", PkFk),
        JoinRelation::new("posts", "Id", "postLinks", "PostId", PkFk),
        JoinRelation::new("posts", "Id", "postLinks", "RelatedPostId", PkFk),
        JoinRelation::new("posts", "Id", "tags", "ExcerptPostId", PkFk),
        JoinRelation::new("comments", "UserId", "badges", "UserId", FkFk),
    ]
}

/// Per-entity popularity: rank-ordered Zipf weights so entity latents and
/// FK in-degrees are correlated (popular users own many posts, etc.).
struct Popularity {
    /// Entity index ordered by descending popularity.
    order: Vec<usize>,
    zipf: Zipf,
}

impl Popularity {
    fn new(latents: &[f64]) -> Popularity {
        let mut order: Vec<usize> = (0..latents.len()).collect();
        order.sort_by(|&a, &b| {
            latents[b]
                .partial_cmp(&latents[a])
                .expect("latents are finite")
        });
        Popularity {
            zipf: Zipf::new(latents.len().max(1), KEY_SKEW),
            order,
        }
    }

    /// Samples an entity index, biased toward popular entities.
    fn sample(&self, rng: &mut StdRng) -> usize {
        self.order[self.zipf.sample(rng)]
    }
}

/// Generates the STATS-profile catalog.
pub fn stats_catalog(cfg: &StatsConfig) -> Catalog {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let model = LatentRowModel::new(256, 0.0, cfg.coupling);

    let n_users = cfg.rows_of("users");
    let n_posts = cfg.rows_of("posts");

    // --- users -----------------------------------------------------------
    let mut user_latent = Vec::with_capacity(n_users);
    let mut user_date = Vec::with_capacity(n_users);
    let rep_zipf = Zipf::new(1000, ATTR_SKEW);
    let views_zipf = Zipf::new(400, ATTR_SKEW);
    let upv_zipf = Zipf::new(300, ATTR_SKEW);
    let mut users = Table::empty(schema_users());
    for uid in 0..n_users {
        let z = model.draw_latent(&mut rng);
        // Active users tend to be early adopters.
        let date_span = (DAYS_MAX as f64 * (1.0 - 0.5 * z)) as i64;
        let date = rng.gen_range(0..date_span.max(1));
        let rep = heavy_map(model.draw_attr(&mut rng, z, 1000, ATTR_SKEW, &rep_zipf));
        let views = model.draw_attr(&mut rng, z, 400, ATTR_SKEW, &views_zipf);
        let upv = model.draw_attr(&mut rng, z, 300, ATTR_SKEW, &upv_zipf);
        users
            .append_row(&[
                Some(uid as i64 + 1),
                Some(rep),
                Some(date),
                Some(views),
                Some(upv),
            ])
            .expect("arity");
        user_latent.push(z);
        user_date.push(date);
    }
    let user_pop = Popularity::new(&user_latent);

    // --- posts -----------------------------------------------------------
    let mut post_latent = Vec::with_capacity(n_posts);
    let mut post_date = Vec::with_capacity(n_posts);
    let score_zipf = Zipf::new(120, ATTR_SKEW);
    let view_zipf = Zipf::new(800, ATTR_SKEW);
    let ac_zipf = Zipf::new(30, ATTR_SKEW + 0.4);
    let cc_zipf = Zipf::new(40, ATTR_SKEW + 0.4);
    let fav_zipf = Zipf::new(60, ATTR_SKEW + 0.6);
    let ptype_zipf = Zipf::new(6, 1.1);
    let mut posts = Table::empty(schema_posts());
    for pid in 0..n_posts {
        let (owner, base_z, base_date): (Datum, f64, i64) = if rng.gen::<f64>() < 0.10 {
            (None, model.draw_latent(&mut rng), 0)
        } else {
            let u = user_pop.sample(&mut rng);
            (Some(u as i64 + 1), user_latent[u], user_date[u])
        };
        // Post latent blends owner activity with its own draw.
        let z = 0.6 * base_z + 0.4 * model.draw_latent(&mut rng);
        let date = child_date(&mut rng, base_date);
        let last_activity = child_date(&mut rng, date);
        let ptype = if z > 0.5 {
            // Active content skews toward questions/answers (types 1/2).
            (ptype_zipf.sample(&mut rng) as i64).min(2) + 1
        } else {
            ptype_zipf.sample(&mut rng) as i64 + 1
        };
        let score = model.draw_attr(&mut rng, z, 120, ATTR_SKEW, &score_zipf) - 3;
        let views = heavy_map(model.draw_attr(&mut rng, z, 800, ATTR_SKEW, &view_zipf));
        let ans = model.draw_attr(&mut rng, z, 30, ATTR_SKEW, &ac_zipf);
        let cc = model.draw_attr(&mut rng, z, 40, ATTR_SKEW, &cc_zipf);
        let fav: Datum = if rng.gen::<f64>() < 0.45 {
            None
        } else {
            Some(model.draw_attr(&mut rng, z, 60, ATTR_SKEW, &fav_zipf))
        };
        posts
            .append_row(&[
                Some(pid as i64 + 1),
                owner,
                Some(ptype),
                Some(date),
                Some(score),
                Some(views),
                Some(ans),
                Some(cc),
                fav,
                Some(last_activity),
            ])
            .expect("arity");
        post_latent.push(z);
        post_date.push(date);
    }
    let post_pop = Popularity::new(&post_latent);

    // --- comments ----------------------------------------------------------
    let cscore_zipf = Zipf::new(25, ATTR_SKEW + 0.5);
    let mut comments = Table::empty(schema_comments());
    for cid in 0..cfg.rows_of("comments") {
        let p = post_pop.sample(&mut rng);
        let u = user_pop.sample(&mut rng);
        let z = 0.5 * post_latent[p] + 0.5 * user_latent[u];
        let date = child_date(&mut rng, post_date[p]);
        let uid: Datum = if rng.gen::<f64>() < 0.05 {
            None
        } else {
            Some(u as i64 + 1)
        };
        let score = model.draw_attr(&mut rng, z, 25, ATTR_SKEW, &cscore_zipf);
        comments
            .append_row(&[
                Some(cid as i64 + 1),
                Some(p as i64 + 1),
                uid,
                Some(score),
                Some(date),
            ])
            .expect("arity");
    }

    // --- badges ------------------------------------------------------------
    let mut badges = Table::empty(schema_badges());
    for bid in 0..cfg.rows_of("badges") {
        let u = user_pop.sample(&mut rng);
        let date = child_date(&mut rng, user_date[u]);
        badges
            .append_row(&[Some(bid as i64 + 1), Some(u as i64 + 1), Some(date)])
            .expect("arity");
    }

    // --- votes --------------------------------------------------------------
    let vtype_zipf = Zipf::new(10, 1.3);
    let bounty_zipf = Zipf::new(12, 1.0);
    let mut votes = Table::empty(schema_votes());
    for vid in 0..cfg.rows_of("votes") {
        let p = post_pop.sample(&mut rng);
        let date = child_date(&mut rng, post_date[p]);
        // Most votes are anonymous (NULL user), as in real STATS.
        let uid: Datum = if rng.gen::<f64>() < 0.65 {
            None
        } else {
            Some(user_pop.sample(&mut rng) as i64 + 1)
        };
        let vtype = vtype_zipf.sample(&mut rng) as i64 + 1;
        let bounty: Datum = if vtype == 8 {
            Some((bounty_zipf.sample(&mut rng) as i64 + 1) * 50)
        } else {
            None
        };
        votes
            .append_row(&[
                Some(vid as i64 + 1),
                Some(p as i64 + 1),
                uid,
                Some(vtype),
                Some(date),
                bounty,
            ])
            .expect("arity");
    }

    // --- postHistory ---------------------------------------------------------
    let htype_zipf = Zipf::new(20, 1.2);
    let mut post_history = Table::empty(schema_post_history());
    for hid in 0..cfg.rows_of("postHistory") {
        let p = post_pop.sample(&mut rng);
        let date = child_date(&mut rng, post_date[p]);
        let uid: Datum = if rng.gen::<f64>() < 0.20 {
            None
        } else {
            Some(user_pop.sample(&mut rng) as i64 + 1)
        };
        let htype = htype_zipf.sample(&mut rng) as i64 + 1;
        post_history
            .append_row(&[
                Some(hid as i64 + 1),
                Some(p as i64 + 1),
                uid,
                Some(htype),
                Some(date),
            ])
            .expect("arity");
    }

    // --- postLinks -------------------------------------------------------------
    let ltype_zipf = Zipf::new(4, 1.5);
    let mut post_links = Table::empty(schema_post_links());
    for lid in 0..cfg.rows_of("postLinks") {
        let p = post_pop.sample(&mut rng);
        let related = post_pop.sample(&mut rng);
        let date = child_date(&mut rng, post_date[p]);
        let ltype = ltype_zipf.sample(&mut rng) as i64 + 1;
        post_links
            .append_row(&[
                Some(lid as i64 + 1),
                Some(p as i64 + 1),
                Some(related as i64 + 1),
                Some(ltype),
                Some(date),
            ])
            .expect("arity");
    }

    // --- tags ----------------------------------------------------------------
    let mut tags = Table::empty(schema_tags());
    let tag_count_zipf = Zipf::new(500, ATTR_SKEW);
    for tid in 0..cfg.rows_of("tags") {
        let excerpt: Datum = if rng.gen::<f64>() < 0.35 {
            None
        } else {
            Some(post_pop.sample(&mut rng) as i64 + 1)
        };
        let count = heavy_map(tag_count_zipf.sample(&mut rng) as i64);
        tags.append_row(&[Some(tid as i64 + 1), excerpt, Some(count)])
            .expect("arity");
    }

    let mut catalog = Catalog::new();
    catalog.add_table(users);
    catalog.add_table(posts);
    catalog.add_table(comments);
    catalog.add_table(badges);
    catalog.add_table(votes);
    catalog.add_table(post_history);
    catalog.add_table(post_links);
    catalog.add_table(tags);
    for j in stats_joins() {
        catalog.add_join(j).expect("tables exist");
    }
    catalog
}

/// Maps a Zipf rank to a heavy-tailed value (quadratic blow-up of top
/// ranks) so numeric attributes get large, skewed domains.
fn heavy_map(rank: i64) -> i64 {
    rank + (rank * rank) / 8 + (rank * rank * rank) / 1024
}

/// Splits a catalog temporally for the update experiment: returns
/// `(stale, inserts)` where `stale` holds rows dated `< cutoff` (tables
/// without a date column stay whole in `stale`) and `inserts` holds the
/// remaining rows per table, preserving ids.
pub fn temporal_split(catalog: &Catalog, cutoff: i64) -> (Catalog, Vec<Table>) {
    let mut stale = Catalog::new();
    let mut inserts = Vec::new();
    for table in catalog.tables() {
        let date_col = DATE_COLUMNS
            .iter()
            .find(|(n, _)| *n == table.name())
            .and_then(|(_, c)| *c)
            .and_then(|c| table.schema().column_index(c));
        let (old_rows, new_rows): (Vec<usize>, Vec<usize>) = match date_col {
            None => ((0..table.row_count()).collect(), Vec::new()),
            Some(c) => {
                let col = table.column(c);
                (0..table.row_count()).partition(|&r| col.get(r).is_none_or(|d| d < cutoff))
            }
        };
        stale.add_table(table.take_rows(&old_rows));
        inserts.push(table.take_rows(&new_rows));
    }
    for j in catalog.joins() {
        stale.add_join(j.clone()).expect("same tables");
    }
    (stale, inserts)
}

/// Samples a delete stream for churn experiments: roughly `frac` of each
/// table's rows, chosen per-row by seeded coin flip, packaged as one
/// delta [`Table`] per catalog table (the same shape
/// [`temporal_split`]'s insert stream uses). Deterministic in `seed`.
pub fn churn_sample(catalog: &Catalog, frac: f64, seed: u64) -> Vec<Table> {
    let frac = frac.clamp(0.0, 1.0);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4u64.rotate_left(32));
    catalog
        .tables()
        .iter()
        .map(|table| {
            let rows: Vec<usize> = (0..table.row_count())
                .filter(|_| rng.gen_bool(frac))
                .collect();
            table.take_rows(&rows)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_support::stats::pearson;

    fn tiny() -> Catalog {
        stats_catalog(&StatsConfig::tiny(1))
    }

    #[test]
    fn churn_sample_is_deterministic_and_proportional() {
        let cat = tiny();
        let a = churn_sample(&cat, 0.2, 7);
        let b = churn_sample(&cat, 0.2, 7);
        assert_eq!(a.len(), cat.table_count());
        for (t, (da, db)) in a.iter().zip(&b).enumerate() {
            assert_eq!(da.row_count(), db.row_count(), "table {t}");
            let n = cat.tables()[t].row_count();
            assert!(da.row_count() <= n);
            if n >= 100 {
                let frac = da.row_count() as f64 / n as f64;
                assert!((0.05..0.5).contains(&frac), "table {t}: frac {frac}");
            }
        }
        // Different seed, different sample.
        let c = churn_sample(&cat, 0.2, 8);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.row_count() != y.row_count()));
        // Degenerate fractions are total / empty.
        assert!(churn_sample(&cat, 0.0, 7)
            .iter()
            .all(|t| t.row_count() == 0));
        for (t, d) in churn_sample(&cat, 1.0, 7).iter().enumerate() {
            assert_eq!(d.row_count(), cat.tables()[t].row_count());
        }
    }

    #[test]
    fn has_eight_tables_and_twelve_joins() {
        let c = tiny();
        assert_eq!(c.table_count(), 8);
        assert_eq!(c.joins().len(), 12);
    }

    #[test]
    fn twenty_three_filterable_attributes() {
        let c = tiny();
        let total: usize = c
            .tables()
            .iter()
            .map(|t| t.schema().filterable_columns().len())
            .sum();
        assert_eq!(total, 23);
        for t in c.tables() {
            let k = t.schema().filterable_columns().len();
            assert!(
                (1..=8).contains(&k),
                "{} has {k} filterable attrs",
                t.name()
            );
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let a = stats_catalog(&StatsConfig::tiny(9));
        let b = stats_catalog(&StatsConfig::tiny(9));
        for (ta, tb) in a.tables().iter().zip(b.tables()) {
            assert_eq!(ta.row_count(), tb.row_count());
            for r in 0..ta.row_count().min(50) {
                assert_eq!(ta.row(r), tb.row(r));
            }
        }
    }

    #[test]
    fn foreign_keys_reference_valid_ids() {
        let c = tiny();
        let n_users = c.table_by_name("users").unwrap().row_count() as i64;
        let n_posts = c.table_by_name("posts").unwrap().row_count() as i64;
        let comments = c.table_by_name("comments").unwrap();
        for r in 0..comments.row_count() {
            if let Some(pid) = comments.column_by_name("PostId").unwrap().get(r) {
                assert!(pid >= 1 && pid <= n_posts);
            }
            if let Some(uid) = comments.column_by_name("UserId").unwrap().get(r) {
                assert!(uid >= 1 && uid <= n_users);
            }
        }
    }

    #[test]
    fn join_key_degrees_are_skewed() {
        let c = stats_catalog(&StatsConfig {
            scale: 0.01,
            ..StatsConfig::default()
        });
        let comments = c.table_by_name("comments").unwrap();
        let col = comments.column_by_name("PostId").unwrap();
        let mut degree = std::collections::HashMap::new();
        for r in 0..comments.row_count() {
            if let Some(v) = col.get(r) {
                *degree.entry(v).or_insert(0usize) += 1;
            }
        }
        let max_deg = *degree.values().max().unwrap();
        let n_posts = c.table_by_name("posts").unwrap().row_count();
        let zero_deg = n_posts - degree.len();
        // O3's precondition: some keys match hundreds of tuples, others none.
        assert!(max_deg >= 20, "max degree {max_deg}");
        assert!(zero_deg > 0, "expected posts without comments");
    }

    #[test]
    fn intra_table_correlation_planted() {
        let c = stats_catalog(&StatsConfig {
            scale: 0.01,
            ..StatsConfig::default()
        });
        let posts = c.table_by_name("posts").unwrap();
        let score = posts.column_by_name("Score").unwrap();
        let views = posts.column_by_name("ViewCount").unwrap();
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for r in 0..posts.row_count() {
            if let (Some(s), Some(v)) = (score.get(r), views.get(r)) {
                xs.push(s as f64);
                ys.push(v as f64);
            }
        }
        let r = pearson(&xs, &ys);
        assert!(r > 0.1, "expected planted correlation, got {r}");
    }

    #[test]
    fn temporal_split_partitions_rows() {
        let c = tiny();
        let (stale, inserts) = temporal_split(&c, SPLIT_DAY);
        assert_eq!(stale.table_count(), 8);
        for (i, t) in c.tables().iter().enumerate() {
            assert_eq!(
                stale.tables()[i].row_count() + inserts[i].row_count(),
                t.row_count()
            );
        }
        // tags are static.
        let tag_idx = c.table_id("tags").unwrap().0;
        assert_eq!(inserts[tag_idx].row_count(), 0);
        // A decent share of rows lands on each side.
        let stale_rows: usize = stale.tables().iter().map(Table::row_count).sum();
        let total: usize = c.tables().iter().map(Table::row_count).sum();
        let frac = stale_rows as f64 / total as f64;
        assert!(frac > 0.2 && frac < 0.8, "stale fraction {frac}");
    }

    #[test]
    fn dates_respect_parent_child_order() {
        let c = tiny();
        let posts = c.table_by_name("posts").unwrap();
        let comments = c.table_by_name("comments").unwrap();
        let pdate = posts.column_by_name("CreationDate").unwrap();
        let cdate = comments.column_by_name("CreationDate").unwrap();
        let cpost = comments.column_by_name("PostId").unwrap();
        for r in 0..comments.row_count() {
            let pid = cpost.get(r).unwrap() as usize - 1;
            assert!(cdate.get(r).unwrap() >= pdate.get(pid).unwrap());
        }
    }
}
