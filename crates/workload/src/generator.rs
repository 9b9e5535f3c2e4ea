//! Workload generation: template selection, predicate synthesis, and the
//! two benchmark workloads plus random training workloads.

use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};

use cardbench_engine::{exact_cardinality, subplan_true_cards, Database};
use cardbench_query::{JoinQuery, Predicate, Region};
use cardbench_storage::ColumnKind;

use crate::templates::{enumerate_templates, JoinTemplate};

/// One benchmark query.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    /// 1-based id (Q1, Q2, …).
    pub id: usize,
    /// Index of the template the query instantiates.
    pub template_id: usize,
    /// The query.
    pub query: JoinQuery,
    /// Exact result cardinality (computed at generation time).
    pub true_card: f64,
}

/// A benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// Queries in id order.
    pub queries: Vec<WorkloadQuery>,
    /// Number of distinct templates used.
    pub template_count: usize,
}

impl Workload {
    /// Min/max joined tables across queries.
    pub fn table_count_range(&self) -> (usize, usize) {
        let counts = self.queries.iter().map(|q| q.query.table_count());
        (counts.clone().min().unwrap_or(0), counts.max().unwrap_or(0))
    }

    /// Min/max filter-predicate counts across queries.
    pub fn predicate_count_range(&self) -> (usize, usize) {
        let counts = self.queries.iter().map(|q| q.query.predicates.len());
        (counts.clone().min().unwrap_or(0), counts.max().unwrap_or(0))
    }

    /// Min/max true cardinality across queries.
    pub fn cardinality_range(&self) -> (f64, f64) {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for q in &self.queries {
            lo = lo.min(q.true_card);
            hi = hi.max(q.true_card);
        }
        (lo, hi)
    }

    /// True when any query uses an FK-FK (many-to-many) join.
    pub fn has_fkfk(&self, db: &Database) -> bool {
        self.queries.iter().any(|wq| {
            wq.query.joins.iter().any(|e| {
                let lt = &wq.query.tables[e.left];
                let rt = &wq.query.tables[e.right];
                db.catalog().joins().iter().any(|j| {
                    j.kind == cardbench_storage::JoinKind::FkFk
                        && ((j.left_table == *lt && j.right_table == *rt)
                            || (j.left_table == *rt && j.right_table == *lt))
                })
            })
        })
    }
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// RNG seed.
    pub seed: u64,
    /// Target number of templates.
    pub templates: usize,
    /// Target number of queries.
    pub queries: usize,
    /// Maximum tables per query.
    pub max_tables: usize,
    /// Upper bound on filter predicates per query.
    pub max_predicates: usize,
    /// Retries per query before giving up on a non-empty result.
    pub retries: usize,
    /// Upper bound on the cardinality of any sub-plan of a query.
    /// Executed plans materialize intermediates, so this bounds both
    /// memory and per-query time; it scales the paper's cardinality
    /// range down uniformly with the data.
    pub max_subplan_card: f64,
}

impl WorkloadConfig {
    /// Paper-shaped STATS-CEB configuration: 70 templates, 146 queries,
    /// 2–8 tables, up to 16 predicates.
    pub fn stats_ceb(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            templates: 70,
            queries: 146,
            max_tables: 8,
            max_predicates: 16,
            retries: 40,
            max_subplan_card: 1.5e7,
        }
    }

    /// Paper-shaped JOB-LIGHT configuration: 23 templates, 70 queries,
    /// 2–5 tables, up to 4 predicates.
    pub fn job_light(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            seed,
            templates: 23,
            queries: 70,
            max_tables: 5,
            max_predicates: 4,
            retries: 24,
            max_subplan_card: 4e6,
        }
    }
}

/// Generates the STATS-CEB analog workload.
pub fn stats_ceb(db: &Database, cfg: &WorkloadConfig) -> Workload {
    build_workload(db, cfg, "STATS-CEB")
}

/// Generates the JOB-LIGHT analog workload.
pub fn job_light(db: &Database, cfg: &WorkloadConfig) -> Workload {
    build_workload(db, cfg, "JOB-LIGHT")
}

fn build_workload(db: &Database, cfg: &WorkloadConfig, name: &str) -> Workload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let all = enumerate_templates(db, cfg.max_tables);
    assert!(!all.is_empty(), "schema has no join templates");
    // Keep only viable templates (non-empty unfiltered join), mirroring
    // the paper's hand-picking of templates with real-world semantics.
    // Large templates are allowed even when their unfiltered join is huge:
    // their queries carry predicates on every table (below).
    let viable: Vec<JoinTemplate> = all
        .into_iter()
        .filter(|t| exact_cardinality(db, &t.to_query()).unwrap_or(0.0) >= 1.0)
        .collect();
    assert!(!viable.is_empty(), "no viable join templates");
    // Over-pick: some large templates fail instantiation under the
    // sub-plan cap and are replaced from the reserve.
    let candidates = pick_templates(&viable, cfg.templates * 2, &mut rng);
    // Spread queries over templates (1–4 each, paper §3), favouring
    // mid-size joins the way STATS-CEB does.
    let mut queries = Vec::with_capacity(cfg.queries);
    let mut id = 1;
    // First pass: one query per template until `cfg.templates` distinct
    // templates are represented (replacing failures from the reserve).
    let mut picked: Vec<(usize, &JoinTemplate)> = Vec::new();
    for (template_id, template) in &candidates {
        if picked.len() >= cfg.templates || queries.len() >= cfg.queries {
            break;
        }
        if let Some((query, card)) = instantiate(db, template, cfg, &mut rng) {
            queries.push(WorkloadQuery {
                id,
                template_id: *template_id,
                query,
                true_card: card,
            });
            id += 1;
            picked.push((*template_id, template));
        }
    }
    assert!(!picked.is_empty(), "no instantiable templates");
    // Later passes: 1-3 more queries per template (paper §3: 1-4 each).
    let mut ti = 0;
    let attempt_cap = cfg.queries * 40 + picked.len() * 8;
    let mut attempts = 0;
    while queries.len() < cfg.queries {
        attempts += 1;
        assert!(
            attempts <= attempt_cap,
            "workload generation stalled: {}/{} queries",
            queries.len(),
            cfg.queries
        );
        let (template_id, template) = &picked[ti % picked.len()];
        ti += 1;
        let per = rng.gen_range(1..=3usize).min(cfg.queries - queries.len());
        for _ in 0..per {
            if let Some((query, card)) = instantiate(db, template, cfg, &mut rng) {
                queries.push(WorkloadQuery {
                    id,
                    template_id: *template_id,
                    query,
                    true_card: card,
                });
                id += 1;
            }
            if queries.len() >= cfg.queries {
                break;
            }
        }
    }
    let mut used: Vec<usize> = queries.iter().map(|q| q.template_id).collect();
    used.sort_unstable();
    used.dedup();
    Workload {
        name: name.to_string(),
        queries,
        template_count: used.len(),
    }
}

/// Picks a size-stratified template subset (covering every table count
/// available, then filling by round-robin over sizes).
fn pick_templates<'a>(
    all: &'a [JoinTemplate],
    want: usize,
    rng: &mut StdRng,
) -> Vec<(usize, &'a JoinTemplate)> {
    let max_size = all.iter().map(JoinTemplate::table_count).max().unwrap_or(2);
    let mut by_size: Vec<Vec<usize>> = vec![Vec::new(); max_size + 1];
    for (i, t) in all.iter().enumerate() {
        by_size[t.table_count()].push(i);
    }
    for bucket in &mut by_size {
        // Deterministic shuffle.
        for i in (1..bucket.len()).rev() {
            let j = rng.gen_range(0..=i);
            bucket.swap(i, j);
        }
    }
    let mut picked = Vec::with_capacity(want);
    let mut cursor = vec![0usize; max_size + 1];
    let mut size = 2;
    while picked.len() < want {
        let bucket = &by_size[size];
        if cursor[size] < bucket.len() {
            let idx = bucket[cursor[size]];
            cursor[size] += 1;
            picked.push((idx, &all[idx]));
        }
        size += 1;
        if size > max_size {
            size = 2;
            // All buckets exhausted?
            if (2..=max_size).all(|s| cursor[s] >= by_size[s].len()) {
                break;
            }
        }
    }
    picked
}

/// Instantiates a template with data-anchored predicates, rejecting
/// empty results.
fn instantiate(
    db: &Database,
    template: &JoinTemplate,
    cfg: &WorkloadConfig,
    rng: &mut StdRng,
) -> Option<(JoinQuery, f64)> {
    // Big templates only stay under the sub-plan cap with selective
    // predicates on every table (the shape of the paper's hand-picked
    // large STATS-CEB queries).
    let cover_all = template.table_count() >= 6;
    // The biggest templates need more predicate draws to land under the
    // sub-plan cap (the paper hand-picks these).
    let retries = cfg.retries * template.table_count().saturating_sub(5).max(1);
    for _ in 0..retries {
        let mut query = template.to_query();
        let slots = filterable_slots(db, template).max(1);
        let lo = if cover_all {
            template.table_count().min(slots)
        } else {
            1
        };
        let n_preds = rng.gen_range(lo..=cfg.max_predicates.min(slots).max(lo));
        query.predicates = gen_predicates(db, template, n_preds, cover_all, rng);
        if query.predicates.is_empty() {
            continue;
        }
        let card = exact_cardinality(db, &query).unwrap_or(0.0);
        if card >= 1.0 && max_subplan_card(db, &query) <= cfg.max_subplan_card {
            return Some((query, card));
        }
    }
    // Fall back to one wide predicate over the (viable) template so
    // generation terminates; reject if even that is empty.
    let mut query = template.to_query();
    query.predicates = gen_predicates(db, template, 1, false, rng)
        .into_iter()
        .map(|mut p| {
            p.region = Region::between(i64::MIN, i64::MAX);
            p
        })
        .collect();
    if query.predicates.is_empty() {
        return None;
    }
    let card = exact_cardinality(db, &query).unwrap_or(0.0);
    (card >= 1.0 && max_subplan_card(db, &query) <= cfg.max_subplan_card).then_some((query, card))
}

/// Largest true cardinality over the query's connected sub-plans — the
/// worst intermediate any join order can materialize — from one
/// enumeration pass over every sub-plan.
fn max_subplan_card(db: &Database, query: &JoinQuery) -> f64 {
    subplan_true_cards(db, query).map_or(f64::INFINITY, |all| {
        all.into_iter().map(|(_, card)| card).fold(0.0, f64::max)
    })
}

fn filterable_slots(db: &Database, template: &JoinTemplate) -> usize {
    template
        .tables
        .iter()
        .map(|t| {
            db.catalog()
                .table_by_name(t)
                .map_or(0, |tab| tab.schema().filterable_columns().len())
        })
        .sum()
}

/// Draws `n` predicates anchored at real row values. With `cover_all`,
/// slot selection first places one predicate on every table.
fn gen_predicates(
    db: &Database,
    template: &JoinTemplate,
    n: usize,
    cover_all: bool,
    rng: &mut StdRng,
) -> Vec<Predicate> {
    // All (table position, column index, kind) filter slots.
    let mut slots = Vec::new();
    for (pos, tname) in template.tables.iter().enumerate() {
        let Ok(table) = db.catalog().table_by_name(tname) else {
            continue;
        };
        for c in table.schema().filterable_columns() {
            slots.push((pos, c, table.schema().columns[c].kind));
        }
    }
    if slots.is_empty() {
        return Vec::new();
    }
    // Sample distinct slots.
    for i in (1..slots.len()).rev() {
        let j = rng.gen_range(0..=i);
        slots.swap(i, j);
    }
    if cover_all {
        // Stable-partition so the first slots cover distinct tables.
        let mut seen = std::collections::HashSet::new();
        slots.sort_by_key(|&(pos, _, _)| !seen.insert(pos));
    }
    slots.truncate(n);
    let mut preds = Vec::new();
    for (pos, col, kind) in slots {
        let table = db
            .catalog()
            .table_by_name(&template.tables[pos])
            .expect("table");
        let column = table.column(col);
        // Anchor at a random non-null value.
        let mut anchor = None;
        for _ in 0..16 {
            let r = rng.gen_range(0..table.row_count().max(1));
            if let Some(v) = column.get(r) {
                anchor = Some(v);
                break;
            }
        }
        let Some(v) = anchor else { continue };
        let region = match kind {
            ColumnKind::Categorical => {
                if rng.gen::<f64>() < 0.3 {
                    // IN-list of a few observed values.
                    let mut vals = vec![v];
                    for _ in 0..rng.gen_range(1..=3) {
                        let r = rng.gen_range(0..table.row_count());
                        if let Some(v2) = column.get(r) {
                            vals.push(v2);
                        }
                    }
                    Region::in_list(vals)
                } else {
                    Region::eq(v)
                }
            }
            _ => match rng.gen_range(0..4) {
                0 => Region::le(v),
                1 => Region::ge(v),
                2 => Region::eq(v),
                _ => {
                    let r = rng.gen_range(0..table.row_count());
                    let v2 = column.get(r).unwrap_or(v);
                    Region::between(v.min(v2), v.max(v2))
                }
            },
        };
        preds.push(Predicate::new(
            pos,
            table.schema().columns[col].name.clone(),
            region,
        ));
    }
    preds
}

/// Generates a random training workload for the query-driven estimators
/// (the paper auto-generates 10^5; scale via `n`). Returns `(queries,
/// true cardinalities)`.
pub fn training_workload(
    db: &Database,
    n: usize,
    max_tables: usize,
    seed: u64,
) -> (Vec<JoinQuery>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let templates = enumerate_templates(db, max_tables);
    let mut queries = Vec::with_capacity(n);
    let mut cards = Vec::with_capacity(n);
    while queries.len() < n {
        let t = &templates[rng.gen_range(0..templates.len())];
        let n_preds = rng.gen_range(1..=4usize);
        let mut q = t.to_query();
        q.predicates = gen_predicates(db, t, n_preds, false, &mut rng);
        let card = exact_cardinality(db, &q).unwrap_or(0.0);
        queries.push(q);
        cards.push(card);
    }
    (queries, cards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cardbench_datagen::{imdb_catalog, stats_catalog, ImdbConfig, StatsConfig};

    fn stats_db() -> Database {
        Database::new(stats_catalog(&StatsConfig::tiny(1)))
    }

    #[test]
    fn stats_ceb_shape() {
        let db = stats_db();
        let cfg = WorkloadConfig {
            queries: 30,
            templates: 20,
            ..WorkloadConfig::stats_ceb(7)
        };
        let w = stats_ceb(&db, &cfg);
        assert_eq!(w.queries.len(), 30);
        assert!(w.template_count <= 20);
        let (lo, hi) = w.table_count_range();
        assert!(lo >= 2 && hi <= 8);
        // Every query is acyclic, connected, and non-empty.
        for q in &w.queries {
            assert!(q.query.is_acyclic());
            assert!(q.true_card >= 1.0, "Q{} empty", q.id);
            assert!(!q.query.predicates.is_empty());
        }
    }

    #[test]
    fn job_light_star_only() {
        let db = Database::new(imdb_catalog(&ImdbConfig::tiny(1)));
        let cfg = WorkloadConfig {
            queries: 20,
            templates: 10,
            ..WorkloadConfig::job_light(7)
        };
        let w = job_light(&db, &cfg);
        assert_eq!(w.queries.len(), 20);
        for q in &w.queries {
            // Star: every multi-table query contains the hub.
            if q.query.table_count() > 1 {
                assert!(q.query.tables.contains(&"title".to_string()));
            }
            assert!(q.query.table_count() <= 5);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let db = stats_db();
        let cfg = WorkloadConfig {
            queries: 10,
            templates: 8,
            ..WorkloadConfig::stats_ceb(42)
        };
        let a = stats_ceb(&db, &cfg);
        let b = stats_ceb(&db, &cfg);
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(x.query, y.query);
            assert_eq!(x.true_card, y.true_card);
        }
    }

    #[test]
    fn stats_ceb_includes_fkfk_queries_at_scale() {
        let db = stats_db();
        let cfg = WorkloadConfig {
            queries: 60,
            templates: 40,
            ..WorkloadConfig::stats_ceb(3)
        };
        let w = stats_ceb(&db, &cfg);
        assert!(w.has_fkfk(&db));
    }

    #[test]
    fn training_workload_labels_match_truth() {
        let db = stats_db();
        let (qs, cards) = training_workload(&db, 12, 3, 5);
        assert_eq!(qs.len(), 12);
        for (q, &c) in qs.iter().zip(&cards) {
            assert_eq!(exact_cardinality(&db, q).unwrap(), c);
        }
    }

    #[test]
    fn workload_stat_helpers() {
        let db = stats_db();
        let cfg = WorkloadConfig {
            queries: 15,
            templates: 10,
            ..WorkloadConfig::stats_ceb(9)
        };
        let w = stats_ceb(&db, &cfg);
        let (plo, phi) = w.predicate_count_range();
        assert!(plo >= 1 && phi <= 16);
        let (clo, chi) = w.cardinality_range();
        assert!(clo >= 1.0 && chi >= clo);
    }
}
