//! Join-kernel scaling sweep.
//!
//! - `join_build`: the hash, merge and index-nested-loop kernels at
//!   build sides from 10^3 to 10^6 rows (probe = 2× build).
//! - `root_emit`: a root join that only counts its matches against one
//!   that writes both match vectors, at 10^5 to 4·10^6 output rows.
//! - `sort`: the radix `(key, row)` sort of the merge / INL kernels on
//!   duplicate-heavy and uniform keys, 10^4 to 4·10^6 rows.
//! - `arena`: a three-table plan through one warm `ExecScratch` against
//!   a fresh arena per execution.
//!
//! That every kernel and emit mode returns the same matches, and that
//! the radix sort equals a comparison sort, is `tests/executor_differential.rs`.

use cardbench_support::json::Json;
use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};

use cardbench_engine::{
    execute, execute_with, join_emit_with, join_matches_with, sort_key_pairs, Database, Emit,
    ExecScratch, ExecStats, JoinAlgo, PhysicalPlan, ScanMethod, HASH_SPILL_ROWS,
};
use cardbench_query::{BoundQuery, JoinEdge, JoinQuery, TableMask};
use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

use super::{median_secs, write_summary};

/// Uniform keys in `0..domain` — the duplicate factor joins see in the
/// benchmark workloads (a few matches per probe key).
fn gen_keys(rng: &mut StdRng, n: usize, domain: i64) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
}

const ALGOS: [(&str, JoinAlgo); 3] = [
    ("hash", JoinAlgo::Hash),
    ("merge", JoinAlgo::Merge),
    ("inl", JoinAlgo::IndexNestedLoop),
];

/// Build + probe of `n` build rows against `2n` probe rows, keys uniform
/// in `0..n`; the hash kernel spills above [`HASH_SPILL_ROWS`].
fn sweep_join_build(rng: &mut StdRng, n: usize, samples: usize) -> Json {
    let rkeys = gen_keys(rng, n, n as i64);
    let lkeys = gen_keys(rng, 2 * n, n as i64);
    let mut scratch = ExecScratch::new();
    let mut fields = vec![
        ("build_rows".to_string(), Json::Number(n as f64)),
        ("probe_rows".to_string(), Json::Number(2.0 * n as f64)),
    ];
    for (label, algo) in ALGOS {
        let spill = match algo {
            JoinAlgo::Hash => HASH_SPILL_ROWS,
            _ => usize::MAX,
        };
        let secs = median_secs(samples, || {
            let mut stats = ExecStats::default();
            join_matches_with(algo, &lkeys, &rkeys, spill, &mut stats, &mut scratch)
        });
        println!("build {n:>8} rows {label:>5}: {secs:.6}s");
        fields.push((format!("{label}_median_secs"), Json::Number(secs)));
    }
    Json::object(fields)
}

/// Count-only against both-sides emission of one root join: 10^4 build
/// rows, 2·10^4 probe rows, the key domain sized for `out_rows` matches.
fn sweep_root_emit(rng: &mut StdRng, out_rows: usize, samples: usize) -> Json {
    let domain = (2e8 / out_rows as f64).round() as i64;
    let rkeys = gen_keys(rng, 10_000, domain);
    let lkeys = gen_keys(rng, 20_000, domain);
    let mut scratch = ExecScratch::new();
    let mut matched = 0;
    let mut fields = Vec::new();
    for (label, algo) in ALGOS {
        let mut time = |emit| {
            median_secs(samples, || {
                let mut stats = ExecStats::default();
                matched = join_emit_with(
                    algo,
                    &lkeys,
                    &rkeys,
                    emit,
                    usize::MAX,
                    &mut stats,
                    &mut scratch,
                )
                .len;
                matched
            })
        };
        let (both, count) = (time(Emit::Both), time(Emit::Count));
        println!(
            "root {matched:>8} rows {label:>5}: both {both:.6}s  count {count:.6}s  ratio {:.2}x",
            both / count
        );
        fields.push((format!("{label}_both_median_secs"), Json::Number(both)));
        fields.push((format!("{label}_count_median_secs"), Json::Number(count)));
    }
    fields.push(("output_rows".to_string(), Json::Number(matched as f64)));
    Json::object(fields)
}

/// Radix sort of `n` `(key, row)` pairs, on duplicate-heavy (1640
/// distinct values) and uniform (`0..n`) keys.
fn sweep_sort(rng: &mut StdRng, n: usize, samples: usize) -> Json {
    let mut scratch = ExecScratch::new();
    let mut fields = vec![("rows".to_string(), Json::Number(n as f64))];
    for (dist, domain) in [("dup_heavy", 1640), ("uniform", n as i64)] {
        let keys: Vec<i64> = gen_keys(rng, n, domain).iter().map(|k| k + 150).collect();
        let secs = median_secs(samples, || sort_key_pairs(&keys, &mut scratch).len());
        println!("sort {n:>8} rows {dist:>9}: radix {secs:.6}s");
        fields.push((format!("{dist}_radix_median_secs"), Json::Number(secs)));
    }
    Json::object(fields)
}

/// `(t0 ⋈ t1) ⋈ t2` on one shared key with `rows` rows in `t0` and `t1`
/// (ten duplicates per key, so the intermediate holds `10 · rows` rows):
/// one warm arena against a fresh one per execution.
fn sweep_arena(rng: &mut StdRng, rows: usize, samples: usize) -> Json {
    let domain = (rows / 10).max(1) as i64;
    let mut cat = Catalog::new();
    for (name, n) in [("t0", rows), ("t1", rows), ("t2", domain as usize)] {
        let schema = TableSchema::new(name, vec![ColumnDef::new("k", ColumnKind::ForeignKey)]);
        let col = Column::from_values(gen_keys(rng, n, domain));
        cat.add_table(Table::from_columns(schema, vec![col]).expect("one column"));
    }
    let db = Database::new(cat);
    let q = JoinQuery {
        tables: vec!["t0".into(), "t1".into(), "t2".into()],
        joins: vec![JoinEdge::new(0, "k", 1, "k"), JoinEdge::new(0, "k", 2, "k")],
        predicates: vec![],
    };
    let bound = BoundQuery::bind(&q, db.catalog()).expect("binds");
    let scan = |t: usize, est: usize| PhysicalPlan::Scan {
        table_pos: t,
        method: ScanMethod::Seq,
        mask: TableMask::single(t),
        est_rows: est as f64,
    };
    let join = |left, right, edge, mask| PhysicalPlan::Join {
        algo: JoinAlgo::Hash,
        left: Box::new(left),
        right: Box::new(right),
        edge,
        mask: TableMask(mask),
        est_rows: 10.0 * rows as f64,
    };
    let inner = join(scan(0, rows), scan(1, rows), 0, 0b011);
    let plan = join(inner, scan(2, domain as usize), 1, 0b111);
    let mut scratch = ExecScratch::new();
    let warm = execute_with(&plan, &bound, &db, &mut scratch);
    assert_eq!(
        warm,
        execute(&plan, &bound, &db),
        "arena reuse changed the result"
    );
    let fresh = median_secs(samples, || execute(&plan, &bound, &db));
    let reused = median_secs(samples, || execute_with(&plan, &bound, &db, &mut scratch));
    println!(
        "arena {rows:>8} rows ({} intermediate): fresh {fresh:.6}s  warm {reused:.6}s  ratio {:.2}x",
        warm.1.intermediate_rows,
        fresh / reused
    );
    Json::object([
        ("rows_per_table", Json::Number(rows as f64)),
        (
            "intermediate_rows",
            Json::Number(warm.1.intermediate_rows as f64),
        ),
        ("fresh_arena_median_secs", Json::Number(fresh)),
        ("warm_arena_median_secs", Json::Number(reused)),
        (
            "arena_retained_bytes",
            Json::Number(scratch.retained_bytes() as f64),
        ),
    ])
}

pub fn run(smoke: bool) -> Result<(), String> {
    let samples = if smoke { 1 } else { 10 };
    let mut rng = StdRng::seed_from_u64(0xCA12D);
    // Smoke mode keeps the two smallest sizes of every section.
    let mut section = |sizes: &[usize], sweep: fn(&mut StdRng, usize, usize) -> Json| {
        let kept = if smoke { 2 } else { sizes.len() };
        let entries = sizes[..kept].iter().map(|&n| sweep(&mut rng, n, samples));
        Json::Array(entries.collect())
    };
    let sizes = section(&[1_000, 10_000, 100_000, 1_000_000], sweep_join_build);
    let root_emit = section(&[100_000, 400_000, 1_000_000, 4_000_000], sweep_root_emit);
    let sort = section(&[10_000, 100_000, 1_000_000, 4_000_000], sweep_sort);
    let arena = section(&[10_000, 100_000, 400_000], sweep_arena);
    let summary = Json::object([
        ("bench", Json::String("executor".to_string())),
        (
            "kernel",
            Json::String("join build+probe, probe = 2x build, keys uniform 0..n".to_string()),
        ),
        ("spill_rows", Json::Number(HASH_SPILL_ROWS as f64)),
        ("sizes", sizes),
        ("root_emit", root_emit),
        ("sort", sort),
        ("arena", arena),
    ]);
    write_summary(smoke, "executor", summary);
    Ok(())
}
