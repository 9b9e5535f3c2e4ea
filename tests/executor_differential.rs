//! Differential property tests of the vectorized executor: on random
//! acyclic 2–5-table queries every join algorithm must produce the same
//! COUNT(*) — equal to `exact_cardinality` — with the logical `ExecStats`
//! counters of a materialize-everything reference executor, in memory
//! and through the partitioned (spilling) hash join; the kernels must
//! emit identical sorted row-pair sets whether the build takes the small
//! flat-table path or the partitioned path, one-sided and count-only
//! emission must equal the matching column of both-sided emission, every
//! kernel's emission order must equal its pinned golden, the radix run
//! sort must expand to the pair sort it replaced (and to a comparison
//! sort), and scratch reuse must be bit-identical to fresh buffers
//! throughout.

use cardbench_engine::{
    exact_cardinality, execute, execute_with, join_emit_with, join_matches, join_matches_with,
    sort_key_runs, Database, Emit, ExecScratch, ExecStats, JoinAlgo, PhysicalPlan, Run, ScanMethod,
    HASH_SPILL_ROWS,
};
use cardbench_query::{BoundQuery, JoinEdge, JoinQuery, Predicate, Region, TableMask};
use cardbench_storage::{Catalog, Column, ColumnDef, ColumnKind, Table, TableSchema};
use cardbench_support::proptest::prelude::*;
use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};

/// Random database: each table has two joinable key columns (~1/8
/// NULLs) and a value column. `shape(t)` gives table `t`'s row count
/// and the domain sizes of `k0` and `k1`.
fn random_db_of(
    rng: &mut StdRng,
    n_tables: usize,
    shape: impl Fn(&mut StdRng, usize) -> (usize, i64, i64),
) -> Database {
    let mut cat = Catalog::new();
    for i in 0..n_tables {
        let (rows, dom0, dom1) = shape(rng, i);
        let key_col = |rng: &mut StdRng, domain: i64| {
            Column::from_datums((0..rows).map(|_| {
                if rng.gen_range(0..8u32) == 0 {
                    None
                } else {
                    Some(rng.gen_range(0..domain))
                }
            }))
        };
        cat.add_table(
            Table::from_columns(
                TableSchema::new(
                    format!("t{i}"),
                    vec![
                        ColumnDef::new("k0", ColumnKind::ForeignKey),
                        ColumnDef::new("k1", ColumnKind::ForeignKey),
                        ColumnDef::new("v", ColumnKind::Numeric),
                    ],
                ),
                vec![
                    key_col(rng, dom0),
                    key_col(rng, dom1),
                    Column::from_values((0..rows as i64).collect()),
                ],
            )
            .unwrap(),
        );
    }
    Database::new(cat)
}

/// Small tables with small key domains: duplicate-heavy joins.
fn random_db(rng: &mut StdRng, n_tables: usize) -> Database {
    random_db_of(rng, n_tables, |rng, _| (rng.gen_range(0..40usize), 6, 6))
}

/// Random acyclic (tree-shaped) query: table `t` joins some earlier
/// table on randomly chosen key columns, with an occasional filter.
fn random_tree_query(rng: &mut StdRng, n_tables: usize) -> JoinQuery {
    let key = |rng: &mut StdRng| {
        if rng.gen_range(0..2u32) == 0 {
            "k0"
        } else {
            "k1"
        }
    };
    let joins = (1..n_tables)
        .map(|t| {
            let parent = rng.gen_range(0..t);
            JoinEdge::new(parent, key(rng), t, key(rng))
        })
        .collect();
    let mut predicates = Vec::new();
    for t in 0..n_tables {
        if rng.gen_range(0..3u32) == 0 {
            predicates.push(Predicate::new(t, "v", Region::le(rng.gen_range(0..30i64))));
        }
    }
    JoinQuery {
        tables: (0..n_tables).map(|i| format!("t{i}")).collect(),
        joins,
        predicates,
    }
}

/// Left-deep plan joining tables in position order with one algorithm
/// everywhere. Tiny random `est_rows` deliberately underestimate the
/// build sides, exercising the flat table's growth path.
fn left_deep_plan(rng: &mut StdRng, n_tables: usize, algo: JoinAlgo) -> PhysicalPlan {
    let scan = |t: usize| PhysicalPlan::Scan {
        table_pos: t,
        method: if t.is_multiple_of(2) {
            ScanMethod::Seq
        } else {
            ScanMethod::Index
        },
        mask: TableMask::single(t),
        est_rows: 1.0,
    };
    let mut plan = scan(0);
    for t in 1..n_tables {
        plan = PhysicalPlan::Join {
            algo,
            left: Box::new(plan),
            right: Box::new(scan(t)),
            edge: t - 1,
            mask: TableMask::full(t + 1),
            est_rows: rng.gen_range(0..4u32) as f64,
        };
    }
    plan
}

/// Random bushy plan: joins the two sub-plans each edge connects, edge
/// `first` first and the others in random order, with a random
/// algorithm per join. `orient` decides which sub-plan becomes the left
/// (probe) side.
fn random_bushy_plan(
    rng: &mut StdRng,
    q: &JoinQuery,
    first: usize,
    orient: impl Fn(&mut StdRng, &PhysicalPlan, &PhysicalPlan) -> bool,
) -> PhysicalPlan {
    let mut forest: Vec<PhysicalPlan> = (0..q.tables.len())
        .map(|t| PhysicalPlan::Scan {
            table_pos: t,
            method: ScanMethod::Seq,
            mask: TableMask::single(t),
            est_rows: 1.0,
        })
        .collect();
    let mut edges: Vec<usize> = (0..q.joins.len()).collect();
    let mut next = first;
    while !edges.is_empty() {
        let edge = edges.swap_remove(next);
        next = rng.gen_range(0..edges.len().max(1));
        let e = &q.joins[edge];
        let find = |forest: &[PhysicalPlan], t: usize| {
            forest.iter().position(|p| p.mask().contains(t)).unwrap()
        };
        let a = forest.swap_remove(find(&forest, e.left));
        let b = forest.swap_remove(find(&forest, e.right));
        let (left, right) = if orient(rng, &a, &b) { (a, b) } else { (b, a) };
        let algo =
            [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::IndexNestedLoop][rng.gen_range(0..3usize)];
        forest.push(PhysicalPlan::Join {
            algo,
            mask: TableMask(left.mask().0 | right.mask().0),
            left: Box::new(left),
            right: Box::new(right),
            edge,
            est_rows: rng.gen_range(0..4u32) as f64,
        });
    }
    forest.pop().unwrap()
}

/// The materialize-everything reference executor: every join emits both
/// match vectors (`join_matches_with`) and composes a fresh selection
/// vector for every table its parent needs, the root included in the
/// emission. Returns COUNT(*) and the logical `ExecStats` counters
/// (`peak_intermediate_bytes` stays 0: the executor under test may hold
/// less).
fn reference_execute(plan: &PhysicalPlan, bound: &BoundQuery, db: &Database) -> (u64, ExecStats) {
    type Chunk = (usize, Vec<(usize, Vec<u32>)>);
    fn run(
        plan: &PhysicalPlan,
        bound: &BoundQuery,
        db: &Database,
        needed: u64,
        stats: &mut ExecStats,
    ) -> Chunk {
        let (algo, left, right, edge) = match plan {
            PhysicalPlan::Scan { table_pos, .. } => {
                let bt = &bound.tables[*table_pos];
                let rows = db.filtered_rows(bt.id, &bt.predicates);
                return (rows.len(), vec![(*table_pos, rows.to_vec())]);
            }
            PhysicalPlan::Join {
                algo,
                left,
                right,
                edge,
                ..
            } => (*algo, left, right, &bound.joins[*edge]),
        };
        let (ltab, lcol, rtab, rcol) = if left.mask().contains(edge.left) {
            (edge.left, edge.left_col, edge.right, edge.right_col)
        } else {
            (edge.right, edge.right_col, edge.left, edge.left_col)
        };
        let lc = run(left, bound, db, needed | 1 << ltab, stats);
        let rc = run(right, bound, db, needed | 1 << rtab, stats);
        let mut keys = |chunk: &Chunk, tab: usize, col: usize| -> Vec<i64> {
            let column = db.catalog().table(bound.tables[tab].id).column(col);
            let sel = &chunk.1.iter().find(|(t, _)| *t == tab).unwrap().1;
            stats.rows_gathered += sel.len() as u64;
            sel.iter()
                .map(|&r| match column.is_null(r as usize) {
                    true => i64::MIN,
                    false => column.raw()[r as usize],
                })
                .collect()
        };
        let lkeys = keys(&lc, ltab, lcol);
        let rkeys = keys(&rc, rtab, rcol);
        stats.probe_rows += lkeys.len() as u64;
        stats.build_rows += rkeys.len() as u64;
        let (lm, rm) = join_matches_with(
            algo,
            &lkeys,
            &rkeys,
            HASH_SPILL_ROWS,
            stats,
            &mut ExecScratch::new(),
        );
        stats.intermediate_rows += lm.len() as u64;
        let mut sel = Vec::new();
        for (side, matches) in [(&lc, &lm), (&rc, &rm)] {
            for (t, rows) in &side.1 {
                if needed >> t & 1 == 1 {
                    stats.rows_gathered += matches.len() as u64;
                    sel.push((*t, matches.iter().map(|&m| rows[m as usize]).collect()));
                }
            }
        }
        (lm.len(), sel)
    }
    let mut stats = ExecStats::default();
    let (rows, _) = run(plan, bound, db, 0, &mut stats);
    stats.output_rows = rows as u64;
    (rows as u64, stats)
}

/// The merge / INL sort the run sort replaced: the non-NULL `(key,
/// position)` pairs of `keys` by a stable LSD radix over `key − min`,
/// digits of at most 11 bits evened out over as many passes as the key
/// range has bits; already-ascending input, fewer than 64 pairs and
/// ranges wider than 63 bits comparison-sorted (the original copied
/// ascending input through, which is the same order).
fn reference_sorted_pairs(keys: &[i64]) -> Vec<(i64, u32)> {
    let mut pairs: Vec<(i64, u32)> = keys
        .iter()
        .enumerate()
        .filter(|&(_, &k)| k != i64::MIN)
        .map(|(i, &k)| (k, i as u32))
        .collect();
    let ascending = pairs.windows(2).all(|w| w[0].0 <= w[1].0);
    let (Some(min), Some(max)) = (
        pairs.iter().map(|p| p.0).min(),
        pairs.iter().map(|p| p.0).max(),
    ) else {
        return pairs;
    };
    let bits = u64::BITS - (max.wrapping_sub(min) as u64).leading_zeros();
    if ascending || pairs.len() < 64 || bits > 63 {
        pairs.sort_unstable();
        return pairs;
    }
    let passes = bits.div_ceil(11);
    let digit_bits = bits.div_ceil(passes);
    let mask = (1u64 << digit_bits) - 1;
    for pass in 0..passes {
        let digit = |k: i64| ((k.wrapping_sub(min) as u64 >> (pass * digit_bits)) & mask) as usize;
        let mut starts = vec![0usize; 1 << digit_bits];
        for &(k, _) in &pairs {
            starts[digit(k)] += 1;
        }
        let mut total = 0;
        for s in &mut starts {
            total += std::mem::replace(s, total);
        }
        let mut next = vec![(0, 0); pairs.len()];
        for &pair in &pairs {
            next[starts[digit(pair.0)]] = pair;
            starts[digit(pair.0)] += 1;
        }
        pairs = next;
    }
    pairs
}

/// `ExecStats` with the one physical counter blanked.
fn logical(mut stats: ExecStats) -> ExecStats {
    stats.peak_intermediate_bytes = 0;
    stats
}

fn canon((l, r): (Vec<u32>, Vec<u32>)) -> Vec<(u32, u32)> {
    let mut v: Vec<(u32, u32)> = l.into_iter().zip(r).collect();
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All three join algorithms agree with the true-cardinality oracle
    /// on random acyclic queries, and scratch reuse changes nothing.
    #[test]
    fn executor_agrees_with_oracle(seed in any::<u64>(), n_tables in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_db(&mut rng, n_tables);
        let q = random_tree_query(&mut rng, n_tables);
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let exact = exact_cardinality(&db, &q).unwrap();
        let mut scratch = ExecScratch::new();
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::IndexNestedLoop] {
            let plan = left_deep_plan(&mut rng, n_tables, algo);
            let fresh = execute(&plan, &bound, &db);
            prop_assert_eq!(fresh.0 as f64, exact, "{:?} vs oracle", algo);
            // Reused-scratch run must be bit-identical (count and stats).
            let reused = execute_with(&plan, &bound, &db, &mut scratch);
            prop_assert_eq!(fresh, reused, "{:?} scratch reuse", algo);
        }
    }

    /// Random bushy plans with a random algorithm per join: COUNT(*) and
    /// the logical counters equal the materializing reference's, through
    /// a fresh arena and through one reused across cases' algorithms.
    #[test]
    fn executor_matches_materializing_reference(seed in any::<u64>(), n_tables in 2usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let db = random_db(&mut rng, n_tables);
        let q = random_tree_query(&mut rng, n_tables);
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let exact = exact_cardinality(&db, &q).unwrap();
        let mut scratch = ExecScratch::new();
        for _ in 0..3 {
            let first = rng.gen_range(0..q.joins.len());
            let plan = random_bushy_plan(&mut rng, &q, first, |rng, _, _| rng.gen_range(0..2u32) == 0);
            let (ref_count, ref_stats) = reference_execute(&plan, &bound, &db);
            prop_assert_eq!(ref_count as f64, exact);
            let fresh = execute(&plan, &bound, &db);
            prop_assert_eq!((fresh.0, logical(fresh.1)), (ref_count, ref_stats));
            prop_assert_eq!(execute_with(&plan, &bound, &db, &mut scratch), fresh);
        }
    }

    /// The three kernels emit identical sorted row-pair sets, and the
    /// hash kernel agrees with itself across the small-build flat path
    /// and the forced-spill partitioned path.
    #[test]
    fn kernels_agree_across_paths(seed in any::<u64>(), ln in 0usize..300, rn in 0usize..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut keys = |n: usize| -> Vec<i64> {
            (0..n)
                .map(|_| {
                    if rng.gen_range(0..10u32) == 0 {
                        i64::MIN // NULL sentinel: must never match
                    } else {
                        rng.gen_range(0..40i64)
                    }
                })
                .collect()
        };
        let lkeys = keys(ln);
        let rkeys = keys(rn);
        let hash = canon(join_matches(JoinAlgo::Hash, &lkeys, &rkeys));
        let merge = canon(join_matches(JoinAlgo::Merge, &lkeys, &rkeys));
        let inl = canon(join_matches(JoinAlgo::IndexNestedLoop, &lkeys, &rkeys));
        prop_assert_eq!(&hash, &merge);
        prop_assert_eq!(&hash, &inl);
        // Force the partitioned path on a small build (threshold 16) and
        // reuse one scratch across both paths.
        let mut scratch = ExecScratch::new();
        let mut stats = ExecStats::default();
        let plain = canon(join_matches_with(
            JoinAlgo::Hash, &lkeys, &rkeys, usize::MAX, &mut stats, &mut scratch,
        ));
        let spilled = canon(join_matches_with(
            JoinAlgo::Hash, &lkeys, &rkeys, 16, &mut stats, &mut scratch,
        ));
        prop_assert_eq!(&plain, &spilled);
        prop_assert_eq!(&plain, &hash);
        if rn > 16 {
            prop_assert!(stats.partitions_spilled >= 2);
        }
        // Count-only and one-sided emission are the length and the
        // columns of both-sided emission, order included.
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge, JoinAlgo::IndexNestedLoop] {
            for spill in [usize::MAX, 16] {
                let (l, r) = join_matches_with(algo, &lkeys, &rkeys, spill, &mut stats, &mut scratch);
                for emit in [Emit::Count, Emit::Left, Emit::Right, Emit::Both] {
                    let spilled_before = stats.partitions_spilled;
                    let m = join_emit_with(algo, &lkeys, &rkeys, emit, spill, &mut stats, &mut scratch);
                    prop_assert_eq!(m.len, l.len() as u64, "{:?} {:?}", algo, emit);
                    let want_left = matches!(emit, Emit::Left | Emit::Both);
                    let want_right = matches!(emit, Emit::Right | Emit::Both);
                    prop_assert_eq!(&m.left[..], if want_left { &l[..] } else { &[] });
                    prop_assert_eq!(&m.right[..], if want_right { &r[..] } else { &[] });
                    let spills = algo == JoinAlgo::Hash && rn > spill;
                    let parts = if spills { rn.div_ceil(spill).max(2) as u64 } else { 0 };
                    prop_assert_eq!(stats.partitions_spilled - spilled_before, parts);
                }
            }
        }
    }

    /// The radix-sorted runs, expanded row by row, equal the pair sort
    /// they replaced, which equals `sort_unstable` on the `(key,
    /// position)` tuples: negative keys, the `i64` extremes,
    /// single-valued inputs, NULLs, long equal-key runs, and key ranges
    /// on either side of every digit-count boundary.
    #[test]
    fn radix_sorted_pairs_equal_comparison_sort(
        seed in any::<u64>(),
        n in 0usize..600,
        range_bits in 0u32..65,
        shape in 0u32..4,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Key range of exactly `range_bits` bits (or one below, to sit
        // on the other side of a digit boundary), anchored anywhere.
        let span: u64 = match range_bits {
            0 => 0,
            64 => u64::MAX,
            b => (1u64 << b) - rng.gen_range(0..2u64),
        };
        let lo: i64 = match shape {
            0 => i64::MIN + 1,
            1 => (i64::MAX as u64).saturating_sub(span) as i64,
            2 => -((span / 2) as i64),
            _ => rng.gen_range(-1000..1000i64),
        };
        let hi = (lo as i128 + span as i128).min(i64::MAX as i128) as i64;
        let mut keys: Vec<i64> = Vec::with_capacity(n);
        while keys.len() < n {
            let k = match rng.gen_range(0..10u32) {
                0 => i64::MIN, // NULL: dropped
                1 => lo,
                2 => hi,
                // Duplicate-heavy stretch.
                _ if keys.len().is_multiple_of(3) => lo + (rng.gen_range(0..4u64).min(span)) as i64,
                _ => (lo as i128 + (rng.gen::<u64>() % span.max(1)) as i128) as i64,
            };
            // Runs of 1 (mostly) up to 40 equal keys.
            let len = if shape == 1 || seed % 3 == 0 { rng.gen_range(1..40usize) } else { 1 };
            keys.extend(std::iter::repeat_n(k, len.min(n - keys.len())));
        }
        if n > 100 && seed % 5 == 0 {
            keys.sort_unstable(); // already-ascending input
        }
        let mut want: Vec<(i64, u32)> = keys
            .iter()
            .enumerate()
            .filter(|&(_, &k)| k != i64::MIN)
            .map(|(i, &k)| (k, i as u32))
            .collect();
        want.sort_unstable();
        prop_assert_eq!(reference_sorted_pairs(&keys), &want[..]);
        let expand = |runs: &[Run]| -> Vec<(i64, u32)> {
            runs.iter().flat_map(|r| r.rows().map(move |row| (r.key, row))).collect()
        };
        let mut scratch = ExecScratch::new();
        let runs = sort_key_runs(&keys, &mut scratch);
        prop_assert!(runs.iter().all(|r| r.len > 0));
        prop_assert_eq!(expand(runs), &want[..]);
        // A warm arena (stale longer buffers) changes nothing.
        let longer: Vec<i64> = (0..700).rev().collect();
        sort_key_runs(&longer, &mut scratch);
        prop_assert_eq!(expand(sort_key_runs(&keys, &mut scratch)), &want[..]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same differential through genuinely spilling hash joins: the
    /// last two tables are big and join on a two-valued key, so their
    /// join exceeds [`HASH_SPILL_ROWS`]; it always lands on the build
    /// side of the join above it, which therefore partitions — with a
    /// one-sided or both-sided emission, as the random shape dictates.
    #[test]
    fn spilling_plans_match_materializing_reference(seed in any::<u64>(), n_tables in 3usize..6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let big = n_tables - 2;
        let db = random_db_of(&mut rng, n_tables, |rng, t| {
            if t >= big {
                (rng.gen_range(420..480usize), 2, 300)
            } else {
                (rng.gen_range(5..40usize), 6, 300)
            }
        });
        // The big pair joins on k0; every small table joins a random
        // later table on the wide k1 domain, which keeps the outputs
        // above the big pair bounded.
        let mut joins = vec![JoinEdge::new(big, "k0", big + 1, "k0")];
        for t in 0..big {
            let other = rng.gen_range(t + 1..n_tables);
            joins.push(JoinEdge::new(other, "k1", t, "k1"));
        }
        let q = JoinQuery {
            tables: (0..n_tables).map(|i| format!("t{i}")).collect(),
            joins,
            predicates: vec![],
        };
        let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
        let exact = exact_cardinality(&db, &q).unwrap();
        let mut scratch = ExecScratch::new();
        for _ in 0..2 {
            // The sub-plan holding the big pair goes right (build side).
            let mut plan = random_bushy_plan(&mut rng, &q, 0, |_, a, _| !a.mask().contains(big));
            force_hash(&mut plan);
            let (ref_count, ref_stats) = reference_execute(&plan, &bound, &db);
            prop_assert_eq!(ref_count as f64, exact);
            prop_assert!(ref_stats.partitions_spilled >= 2, "no join spilled");
            let fresh = execute(&plan, &bound, &db);
            prop_assert_eq!((fresh.0, logical(fresh.1)), (ref_count, ref_stats));
            prop_assert_eq!(execute_with(&plan, &bound, &db, &mut scratch), fresh);
        }
    }
}

/// Keys laid out as runs: `(key, length)` pairs expanded in order.
fn runs_of(runs: impl IntoIterator<Item = (i64, usize)>) -> Vec<i64> {
    runs.into_iter()
        .flat_map(|(k, len)| std::iter::repeat_n(k, len))
        .collect()
}

/// The seeded `(probe, build)` key corpus the emission goldens digest:
/// uniform keys, duplicate-heavy keys, one constant key, two alternating
/// keys, runs of length 1..10^4 on either side, long NULL runs, and the
/// `i64` extremes (a key range wider than 63 bits).
fn golden_corpus() -> Vec<(Vec<i64>, Vec<i64>)> {
    const NULL: i64 = i64::MIN;
    let mut rng = StdRng::seed_from_u64(0x601D);
    let mut corpus = Vec::new();
    let uniform = |rng: &mut StdRng, n: usize, domain: i64| -> Vec<i64> {
        (0..n)
            .map(|_| match rng.gen_range(0..10u32) {
                0 => NULL,
                _ => rng.gen_range(0..domain),
            })
            .collect()
    };
    corpus.push((
        uniform(&mut rng, 2_000, 3_000),
        uniform(&mut rng, 1_500, 3_000),
    ));
    corpus.push((uniform(&mut rng, 1_500, 40), uniform(&mut rng, 1_200, 40)));
    corpus.push((vec![7; 600], vec![7; 500]));
    let alternating = |n: usize| (0..n).map(|i| [-3, 11][i % 2]).collect::<Vec<i64>>();
    corpus.push((alternating(800), alternating(700)));
    // Runs of every length 1..10^4 over a small domain, against short
    // runs: once as the probe side, once as the build side.
    let long_runs = |rng: &mut StdRng| {
        let lens = [1, 2, 3, 10, 100, 1_000, 10_000, 5, 300, 1, 1, 2_500];
        runs_of(lens.map(|len| (rng.gen_range(0..64i64), len)))
    };
    let short_runs = |rng: &mut StdRng, n: usize| {
        runs_of((0..n).map(|_| (rng.gen_range(0..64i64), rng.gen_range(1..20usize))))
    };
    let (long, short) = (long_runs(&mut rng), short_runs(&mut rng, 30));
    corpus.push((long, short));
    let (long, short) = (long_runs(&mut rng), short_runs(&mut rng, 30));
    corpus.push((short, long));
    // NULL runs between key runs, with keys repeating across them.
    let null_runs = |rng: &mut StdRng, n: usize| {
        runs_of((0..n).flat_map(|_| {
            let key = rng.gen_range(0..8i64);
            [
                (NULL, rng.gen_range(1..50usize)),
                (key, rng.gen_range(1..30usize)),
            ]
        }))
    };
    corpus.push((null_runs(&mut rng, 40), null_runs(&mut rng, 40)));
    let extremes = [i64::MIN + 1, i64::MAX, i64::MAX - 1, -1, 0, 1, NULL];
    let pick = |rng: &mut StdRng, n: usize| -> Vec<i64> {
        (0..n)
            .map(|_| extremes[rng.gen_range(0..extremes.len())])
            .collect()
    };
    corpus.push((pick(&mut rng, 300), pick(&mut rng, 250)));
    corpus
}

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01B3);
        }
    }
}

/// `join_emit_with`'s output, order included, pinned per (algorithm,
/// emit mode, spill threshold) over [`golden_corpus`]: the match count,
/// both match vectors element by element, and the partitions spilled.
/// Recorded from the row-at-a-time kernels (chained hash build, `(key,
/// row)` pair sort) that the run-at-a-time kernels replaced.
#[test]
fn emission_order_goldens() {
    // Count, Left, Right, Both. Probe order (in-memory hash, and INL at
    // any threshold): probe row, then build row. Spilled hash: partition,
    // probe row, build row. Merge: key, probe row, build row.
    const PROBE_ORDER: [u64; 4] = [
        0x14a4_f14f_3d29_86b2,
        0x354d_17ab_f3bf_d891,
        0x653c_8117_013f_7203,
        0xfb99_bd6e_1b18_2110,
    ];
    const SPILLED: [u64; 4] = [
        0x2faa_2774_89d0_1024,
        0xdc25_3ec2_1676_1793,
        0xcad5_0388_3164_43f9,
        0xd362_66fd_77a9_0f56,
    ];
    const KEY_ORDER: [u64; 4] = [
        0x14a4_f14f_3d29_86b2,
        0x5560_5cec_ec50_0f79,
        0xd3f3_4ab8_ba11_5ca7,
        0xb66d_07e9_0f37_496c,
    ];
    const GOLDENS: [(JoinAlgo, usize, [u64; 4]); 6] = [
        (JoinAlgo::Hash, usize::MAX, PROBE_ORDER),
        (JoinAlgo::Hash, 100, SPILLED),
        (JoinAlgo::Merge, usize::MAX, KEY_ORDER),
        (JoinAlgo::Merge, 100, KEY_ORDER),
        (JoinAlgo::IndexNestedLoop, usize::MAX, PROBE_ORDER),
        (JoinAlgo::IndexNestedLoop, 100, PROBE_ORDER),
    ];
    let corpus = golden_corpus();
    let mut scratch = ExecScratch::new();
    for (algo, spill, want) in GOLDENS {
        let emits = [Emit::Count, Emit::Left, Emit::Right, Emit::Both];
        for (emit, want) in emits.into_iter().zip(want) {
            let mut d = Fnv(0xCBF2_9CE4_8422_2325);
            for (lkeys, rkeys) in &corpus {
                let mut stats = ExecStats::default();
                let m = join_emit_with(algo, lkeys, rkeys, emit, spill, &mut stats, &mut scratch);
                d.word(m.len);
                for side in [&m.left, &m.right] {
                    d.word(side.len() as u64);
                    side.iter().for_each(|&row| d.word(u64::from(row)));
                }
                d.word(stats.partitions_spilled);
            }
            assert_eq!(d.0, want, "{algo:?} {emit:?} spill {spill}");
        }
    }
}

/// Makes every join whose build side holds a join a hash join (only
/// hash joins spill); joins over two scans keep their random algorithm.
fn force_hash(plan: &mut PhysicalPlan) {
    if let PhysicalPlan::Join {
        algo, left, right, ..
    } = plan
    {
        if matches!(**right, PhysicalPlan::Join { .. }) {
            *algo = JoinAlgo::Hash;
        }
        force_hash(left);
        force_hash(right);
    }
}

/// A build side genuinely above [`HASH_SPILL_ROWS`] drives the real
/// partitioned path through `execute`: the hash plan must agree with the
/// merge plan and report its spill partitions.
#[test]
fn real_spill_threshold_crossed_through_executor() {
    let build_rows = HASH_SPILL_ROWS + 5_000;
    let mut rng = StdRng::seed_from_u64(42);
    let mut cat = Catalog::new();
    cat.add_table(
        Table::from_columns(
            TableSchema::new("outer_t", vec![ColumnDef::new("k", ColumnKind::ForeignKey)]),
            vec![Column::from_values(
                (0..2_000).map(|_| rng.gen_range(0..1_000i64)).collect(),
            )],
        )
        .unwrap(),
    );
    cat.add_table(
        Table::from_columns(
            TableSchema::new("inner_t", vec![ColumnDef::new("k", ColumnKind::ForeignKey)]),
            vec![Column::from_values(
                (0..build_rows)
                    .map(|_| rng.gen_range(0..1_000i64))
                    .collect(),
            )],
        )
        .unwrap(),
    );
    let db = Database::new(cat);
    let q = JoinQuery {
        tables: vec!["outer_t".into(), "inner_t".into()],
        joins: vec![JoinEdge::new(0, "k", 1, "k")],
        predicates: vec![],
    };
    let bound = BoundQuery::bind(&q, db.catalog()).unwrap();
    let plan = |algo| PhysicalPlan::Join {
        algo,
        left: Box::new(PhysicalPlan::Scan {
            table_pos: 0,
            method: ScanMethod::Seq,
            mask: TableMask::single(0),
            est_rows: 2_000.0,
        }),
        right: Box::new(PhysicalPlan::Scan {
            table_pos: 1,
            method: ScanMethod::Seq,
            mask: TableMask::single(1),
            est_rows: build_rows as f64,
        }),
        edge: 0,
        mask: TableMask::full(2),
        est_rows: 0.0,
    };
    let (hash_count, hash_stats) = execute(&plan(JoinAlgo::Hash), &bound, &db);
    let (merge_count, _) = execute(&plan(JoinAlgo::Merge), &bound, &db);
    assert_eq!(hash_count, merge_count);
    assert_eq!(
        hash_stats.partitions_spilled,
        build_rows.div_ceil(HASH_SPILL_ROWS).max(2) as u64
    );
    assert_eq!(hash_stats.build_rows, build_rows as u64);
    assert_eq!(hash_stats.probe_rows, 2_000);
}
