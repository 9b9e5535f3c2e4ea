//! Join-kernel micro-benchmarks. Writes `BENCH_executor.json` at the repo
//! root with the medians of every section so the speedup claims stay
//! reproducible; `CARDBENCH_FAST=1` runs a 1-sample smoke at the two
//! smallest sizes of each section and skips the JSON.
//!
//! - `join_build_*`: the flat open-addressing hash join (and the merge /
//!   index-nested-loop kernels) against an inline replica of the
//!   pre-vectorization `HashMap<i64, Vec<u32>>` executor, at build sides
//!   from 10^3 to 10^6 rows.
//! - `root_emit_*`: a root join that only counts its matches against one
//!   that writes both match vectors, at 10^5 to 4·10^6 output rows.
//! - `sort_*`: the radix `(key, row)` sort of the merge / INL kernels
//!   against the collect + comparison sort it replaced, on
//!   duplicate-heavy and uniform keys, 10^4 to 4·10^6 rows.
//! - `arena_*`: a three-table plan through one warm `ExecScratch`
//!   against a fresh arena per execution.

use std::collections::HashMap;
use std::path::PathBuf;

use cardbench_support::criterion::Criterion;
use cardbench_support::json::Json;
use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};

use cardbench_engine::{
    execute, execute_with, join_emit_with, join_matches_with, sort_key_pairs, Database, Emit,
    ExecScratch, ExecStats, JoinAlgo, PhysicalPlan, ScanMethod, HASH_SPILL_ROWS,
};
use cardbench_query::{BoundQuery, JoinEdge, JoinQuery, TableMask};
use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};

/// NULL sentinel used by the executor's key vectors.
const NULL_KEY: i64 = i64::MIN;

/// The executor's hash join as it stood before the flat-table rewrite:
/// a `HashMap` keyed build with one `Vec<u32>` per distinct key, and a
/// `key % parts` partitioned path above the spill threshold.
fn baseline_hash_join(lkeys: &[i64], rkeys: &[i64]) -> (Vec<u32>, Vec<u32>) {
    if rkeys.len() > HASH_SPILL_ROWS {
        return baseline_partitioned(lkeys, rkeys);
    }
    let mut table: HashMap<i64, Vec<u32>> = HashMap::new();
    for (i, &k) in rkeys.iter().enumerate() {
        if k != NULL_KEY {
            table.entry(k).or_default().push(i as u32);
        }
    }
    let mut lout = Vec::new();
    let mut rout = Vec::new();
    for (i, &k) in lkeys.iter().enumerate() {
        if k == NULL_KEY {
            continue;
        }
        if let Some(rows) = table.get(&k) {
            for &r in rows {
                lout.push(i as u32);
                rout.push(r);
            }
        }
    }
    (lout, rout)
}

fn baseline_partitioned(lkeys: &[i64], rkeys: &[i64]) -> (Vec<u32>, Vec<u32>) {
    let parts = rkeys.len().div_ceil(HASH_SPILL_ROWS).max(2);
    let mut lparts: Vec<(Vec<i64>, Vec<u32>)> = vec![Default::default(); parts];
    let mut rparts: Vec<(Vec<i64>, Vec<u32>)> = vec![Default::default(); parts];
    for (i, &k) in lkeys.iter().enumerate() {
        if k != NULL_KEY {
            let p = (k.unsigned_abs() as usize) % parts;
            lparts[p].0.push(k);
            lparts[p].1.push(i as u32);
        }
    }
    for (i, &k) in rkeys.iter().enumerate() {
        if k != NULL_KEY {
            let p = (k.unsigned_abs() as usize) % parts;
            rparts[p].0.push(k);
            rparts[p].1.push(i as u32);
        }
    }
    let mut lout = Vec::new();
    let mut rout = Vec::new();
    for ((lk, lidx), (rk, ridx)) in lparts.into_iter().zip(rparts) {
        let (pl, pr) = baseline_hash_join(&lk, &rk);
        lout.extend(pl.into_iter().map(|i| lidx[i as usize]));
        rout.extend(pr.into_iter().map(|i| ridx[i as usize]));
    }
    (lout, rout)
}

/// Uniform keys in `0..domain` — the duplicate factor joins see in the
/// benchmark workloads (a few matches per probe key).
fn gen_keys(rng: &mut StdRng, n: usize, domain: i64) -> Vec<i64> {
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
}

/// The merge / INL sort input as it was built before the radix kernel:
/// a fresh `(key, row)` vector, comparison-sorted.
fn baseline_sorted_pairs(keys: &[i64]) -> Vec<(i64, u32)> {
    let mut v: Vec<(i64, u32)> = keys
        .iter()
        .enumerate()
        .filter(|&(_, &k)| k != NULL_KEY)
        .map(|(i, &k)| (k, i as u32))
        .collect();
    v.sort_unstable();
    v
}

const ALGOS: [(&str, JoinAlgo); 3] = [
    ("hash", JoinAlgo::Hash),
    ("merge", JoinAlgo::Merge),
    ("inl", JoinAlgo::IndexNestedLoop),
];

/// Count-only against both-sides emission of one root join: 10^4 build
/// rows, 2·10^4 probe rows, the key domain sized for `out_rows` matches.
fn bench_root_emit(c: &mut Criterion, rng: &mut StdRng, out_rows: usize, samples: usize) -> Json {
    let domain = (2e8 / out_rows as f64).round() as i64;
    let rkeys = gen_keys(rng, 10_000, domain);
    let lkeys = gen_keys(rng, 20_000, domain);
    let mut scratch = ExecScratch::new();
    let mut group = c.benchmark_group(format!("root_emit_{out_rows}"));
    group.sample_size(samples);
    let mut matched = 0;
    for (label, algo) in ALGOS {
        for (mode, emit) in [("count", Emit::Count), ("both", Emit::Both)] {
            group.bench_function(format!("{label}_{mode}"), |b| {
                b.iter(|| {
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
            });
        }
    }
    group.finish();
    let mut fields = vec![("output_rows".to_string(), Json::Number(matched as f64))];
    for (label, _) in ALGOS {
        let count = median_of(c, &format!("root_emit_{out_rows}/{label}_count"));
        let both = median_of(c, &format!("root_emit_{out_rows}/{label}_both"));
        println!(
            "root {matched:>8} rows {label:>5}: both {both:.6}s  count {count:.6}s  speedup {:.2}x",
            both / count
        );
        fields.push((format!("{label}_both_median_secs"), Json::Number(both)));
        fields.push((format!("{label}_count_median_secs"), Json::Number(count)));
    }
    Json::object(fields)
}

/// Radix against comparison sort of `n` `(key, row)` pairs, on
/// duplicate-heavy (1640 distinct values) and uniform (`0..n`) keys.
fn bench_sort(c: &mut Criterion, rng: &mut StdRng, n: usize, samples: usize) -> Json {
    let mut scratch = ExecScratch::new();
    let mut group = c.benchmark_group(format!("sort_{n}"));
    group.sample_size(samples);
    let dists = [("dup_heavy", 1640), ("uniform", n as i64)];
    for (dist, domain) in dists {
        let keys: Vec<i64> = gen_keys(rng, n, domain).iter().map(|k| k + 150).collect();
        assert_eq!(
            sort_key_pairs(&keys, &mut scratch),
            &baseline_sorted_pairs(&keys)[..],
            "sort disagreement at n={n} {dist}"
        );
        group.bench_function(format!("{dist}_comparison"), |b| {
            b.iter(|| baseline_sorted_pairs(&keys))
        });
        group.bench_function(format!("{dist}_radix"), |b| {
            b.iter(|| sort_key_pairs(&keys, &mut scratch).len())
        });
    }
    group.finish();
    let mut fields = vec![("rows".to_string(), Json::Number(n as f64))];
    for (dist, _) in dists {
        let cmp = median_of(c, &format!("sort_{n}/{dist}_comparison"));
        let radix = median_of(c, &format!("sort_{n}/{dist}_radix"));
        println!(
            "sort {n:>8} rows {dist:>9}: comparison {cmp:.6}s  radix {radix:.6}s  speedup {:.2}x",
            cmp / radix
        );
        fields.push((format!("{dist}_comparison_median_secs"), Json::Number(cmp)));
        fields.push((format!("{dist}_radix_median_secs"), Json::Number(radix)));
    }
    Json::object(fields)
}

/// `(t0 ⋈ t1) ⋈ t2` on one shared key with `rows` rows in `t0` and `t1`
/// (ten duplicates per key, so the intermediate holds `10 · rows` rows):
/// one warm arena against a fresh one per execution.
fn bench_arena(c: &mut Criterion, rng: &mut StdRng, rows: usize, samples: usize) -> Json {
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
    let mut group = c.benchmark_group(format!("arena_{rows}"));
    group.sample_size(samples);
    group.bench_function("fresh", |b| b.iter(|| execute(&plan, &bound, &db)));
    group.bench_function("warm", |b| {
        b.iter(|| execute_with(&plan, &bound, &db, &mut scratch))
    });
    group.finish();
    let fresh = median_of(c, &format!("arena_{rows}/fresh"));
    let reused = median_of(c, &format!("arena_{rows}/warm"));
    println!(
        "arena {rows:>8} rows ({} intermediate): fresh {fresh:.6}s  warm {reused:.6}s  speedup {:.2}x",
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

fn median_of(c: &Criterion, id: &str) -> f64 {
    c.measurements
        .iter()
        .find(|m| m.id == id)
        .unwrap_or_else(|| panic!("no measurement {id}"))
        .median
        .as_secs_f64()
}

fn main() {
    let smoke = std::env::var("CARDBENCH_FAST").is_ok_and(|v| v == "1");
    let sizes: &[usize] = if smoke {
        &[1_000, 10_000]
    } else {
        &[1_000, 10_000, 100_000, 1_000_000]
    };
    let samples = if smoke { 1 } else { 10 };

    let mut rng = StdRng::seed_from_u64(0xCA12D);
    let mut c = Criterion::default();
    let mut scratch = ExecScratch::new();
    for &n in sizes {
        let rkeys = gen_keys(&mut rng, n, n as i64);
        let lkeys = gen_keys(&mut rng, 2 * n, n as i64);
        // Correctness guard: both kernels must agree before we time them.
        let mut stats = ExecStats::default();
        let mut flat = join_matches_with(
            JoinAlgo::Hash,
            &lkeys,
            &rkeys,
            HASH_SPILL_ROWS,
            &mut stats,
            &mut scratch,
        );
        let mut base = baseline_hash_join(&lkeys, &rkeys);
        for out in [&mut flat, &mut base] {
            let mut pairs: Vec<(u32, u32)> =
                out.0.iter().copied().zip(out.1.iter().copied()).collect();
            pairs.sort_unstable();
            out.0 = pairs.iter().map(|p| p.0).collect();
        }
        assert_eq!(flat.0, base.0, "kernel disagreement at n={n}");

        let mut group = c.benchmark_group(format!("join_build_{n}"));
        group.sample_size(samples);
        group.bench_function("baseline_hashmap", |b| {
            b.iter(|| baseline_hash_join(&lkeys, &rkeys))
        });
        group.bench_function("flat_hash", |b| {
            b.iter(|| {
                let mut stats = ExecStats::default();
                join_matches_with(
                    JoinAlgo::Hash,
                    &lkeys,
                    &rkeys,
                    HASH_SPILL_ROWS,
                    &mut stats,
                    &mut scratch,
                )
            })
        });
        for (label, algo) in [
            ("merge", JoinAlgo::Merge),
            ("inl", JoinAlgo::IndexNestedLoop),
        ] {
            group.bench_function(label, |b| {
                b.iter(|| {
                    let mut stats = ExecStats::default();
                    join_matches_with(algo, &lkeys, &rkeys, usize::MAX, &mut stats, &mut scratch)
                })
            });
        }
        group.finish();
    }

    let pick =
        |full: &[usize]| -> Vec<usize> { full[..if smoke { 2 } else { full.len() }].to_vec() };
    let root_entries: Vec<Json> = pick(&[100_000, 400_000, 1_000_000, 4_000_000])
        .into_iter()
        .map(|out_rows| bench_root_emit(&mut c, &mut rng, out_rows, samples))
        .collect();
    let sort_entries: Vec<Json> = pick(&[10_000, 100_000, 1_000_000, 4_000_000])
        .into_iter()
        .map(|n| bench_sort(&mut c, &mut rng, n, samples))
        .collect();
    let arena_entries: Vec<Json> = pick(&[10_000, 100_000, 400_000])
        .into_iter()
        .map(|rows| bench_arena(&mut c, &mut rng, rows, samples))
        .collect();

    let mut speedups: Vec<f64> = Vec::new();
    let size_entries: Vec<Json> = sizes
        .iter()
        .map(|&n| {
            let base = median_of(&c, &format!("join_build_{n}/baseline_hashmap"));
            let flat = median_of(&c, &format!("join_build_{n}/flat_hash"));
            let speedup = base / flat;
            speedups.push(speedup);
            println!(
                "build {n:>8} rows: baseline {base:.6}s  flat {flat:.6}s  speedup {speedup:.2}x"
            );
            Json::object([
                ("build_rows", Json::Number(n as f64)),
                ("probe_rows", Json::Number(2.0 * n as f64)),
                ("baseline_hashmap_median_secs", Json::Number(base)),
                ("flat_hash_median_secs", Json::Number(flat)),
                ("speedup", Json::Number(speedup)),
                (
                    "merge_median_secs",
                    Json::Number(median_of(&c, &format!("join_build_{n}/merge"))),
                ),
                (
                    "inl_median_secs",
                    Json::Number(median_of(&c, &format!("join_build_{n}/inl"))),
                ),
            ])
        })
        .collect();
    speedups.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let speedup_median = speedups[speedups.len() / 2];
    println!("flat vs baseline median speedup: {speedup_median:.2}x");

    if smoke {
        println!("smoke mode (CARDBENCH_FAST=1): not writing BENCH_executor.json");
        return;
    }
    let summary = Json::object([
        ("bench", Json::String("executor".to_string())),
        (
            "kernel",
            Json::String("hash join build+probe, probe = 2x build, keys uniform 0..n".to_string()),
        ),
        ("spill_rows", Json::Number(HASH_SPILL_ROWS as f64)),
        ("speedup_median", Json::Number(speedup_median)),
        ("sizes", Json::Array(size_entries)),
        ("root_emit", Json::Array(root_entries)),
        ("sort", Json::Array(sort_entries)),
        ("arena", Json::Array(arena_entries)),
    ]);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_executor.json");
    std::fs::write(&path, summary.pretty()).expect("write BENCH_executor.json");
    println!("wrote {}", path.display());
}
