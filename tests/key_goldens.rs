//! Cache-key goldens: the exact 64-bit values every shared memo and every
//! hash-seeded estimator keys on. `canonical_hash` keys the truth cache
//! and the feedback store's exact entries and seeds the per-call RNGs of
//! WJSample, NeuroCard^E and ChaosEst; `template_hash` keys the feedback
//! store's sibling corrections; `structural_key` keys the topology memo;
//! `seed_for` seeds every property test. A change to any of them moves
//! estimates, hit counts or test inputs, so each is pinned here over a
//! seeded corpus of queries: permuted tables, joins and predicates,
//! ranges and IN-lists, negative literals and `i64` extremes.

use cardbench::engine::JoinTopology;
use cardbench::prelude::*;
use cardbench::query::{BoundQuery, JoinEdge, Region};
use cardbench::storage::{ColumnDef, ColumnKind, TableSchema};
use cardbench_support::hash::FnvHasher;
use cardbench_support::proptest::seed_for;
use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};
use std::hash::Hasher;

const TABLES: usize = 6;
const JOIN_COLS: [&str; 2] = ["id", "fk"];
const PRED_COLS: [&str; 3] = ["a", "b", "id"];

/// Digest of a stream of words, written out here so the goldens do not
/// depend on the hash code they pin.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    for t in 0..TABLES {
        let cols = ["id", "fk", "a", "b"];
        c.add_table(
            Table::from_columns(
                TableSchema::new(
                    format!("t{t}"),
                    cols.iter()
                        .map(|&n| ColumnDef::new(n, ColumnKind::Numeric))
                        .collect(),
                ),
                cols.iter()
                    .map(|_| Column::from_values(vec![1, 2, 3]))
                    .collect(),
            )
            .unwrap(),
        );
    }
    c
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

fn literal(rng: &mut StdRng) -> i64 {
    match rng.gen_range(0..6u32) {
        0 => i64::MIN,
        1 => i64::MAX,
        2 => -rng.gen_range(1..1_000i64),
        _ => rng.gen_range(0..1_000i64),
    }
}

fn region(rng: &mut StdRng) -> Region {
    match rng.gen_range(0..4u32) {
        0 => Region::eq(literal(rng)),
        1 => {
            let (x, y) = (literal(rng), literal(rng));
            Region::between(x.min(y), x.max(y))
        }
        // Unsorted, possibly repeated: the key hashes the list as given.
        2 => Region::In(
            (0..rng.gen_range(1..5usize))
                .map(|_| literal(rng))
                .collect(),
        ),
        _ => Region::in_list(
            (0..rng.gen_range(1..5usize))
                .map(|_| literal(rng))
                .collect(),
        ),
    }
}

/// A random acyclic query over distinct tables of [`catalog`].
fn random_query(rng: &mut StdRng) -> JoinQuery {
    let mut ids: Vec<usize> = (0..TABLES).collect();
    shuffle(rng, &mut ids);
    let n = rng.gen_range(1..=TABLES);
    let tables: Vec<String> = ids[..n].iter().map(|t| format!("t{t}")).collect();
    let joins = (1..n)
        .map(|i| {
            let p = rng.gen_range(0..i);
            let (lc, rc) = (
                JOIN_COLS[rng.gen_range(0..2usize)],
                JOIN_COLS[rng.gen_range(0..2usize)],
            );
            JoinEdge::new(p, lc, i, rc)
        })
        .collect();
    let predicates = (0..rng.gen_range(0..=4usize))
        .map(|_| {
            Predicate::new(
                rng.gen_range(0..n),
                PRED_COLS[rng.gen_range(0..3usize)],
                region(rng),
            )
        })
        .collect();
    JoinQuery {
        tables,
        joins,
        predicates,
    }
}

/// The same query with its tables, joins, edge sides and predicates
/// reordered.
fn permuted(rng: &mut StdRng, q: &JoinQuery) -> JoinQuery {
    let n = q.tables.len();
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(rng, &mut order);
    // `order[new] = old`; `pos[old] = new`.
    let mut pos = vec![0; n];
    for (new, &old) in order.iter().enumerate() {
        pos[old] = new;
    }
    let tables = order.iter().map(|&old| q.tables[old].clone()).collect();
    let mut joins: Vec<JoinEdge> = q
        .joins
        .iter()
        .map(|e| {
            if rng.gen_bool(0.5) {
                JoinEdge::new(pos[e.right], &*e.right_col, pos[e.left], &*e.left_col)
            } else {
                JoinEdge::new(pos[e.left], &*e.left_col, pos[e.right], &*e.right_col)
            }
        })
        .collect();
    shuffle(rng, &mut joins);
    let mut predicates: Vec<Predicate> = q
        .predicates
        .iter()
        .map(|p| Predicate::new(pos[p.table], &*p.column, p.region.clone()))
        .collect();
    shuffle(rng, &mut predicates);
    JoinQuery {
        tables,
        joins,
        predicates,
    }
}

/// Key digests over 256 seeded queries and their permutations:
/// `[canonical, template, structural, structural of the permutation,
/// canonical over every connected sub-plan]`, plus the first filtered
/// query's `(canonical, template, structural)`.
fn corpus_keys() -> ([u64; 5], [u64; 3]) {
    let cat = catalog();
    let mut rng = StdRng::seed_from_u64(0x6b65_7973);
    let mut d = [(); 5].map(|_| Digest::new());
    let mut first = None;
    for _ in 0..256 {
        let q = random_query(&mut rng);
        let p = permuted(&mut rng, &q);
        let (bq, bp) = (
            BoundQuery::bind(&q, &cat).unwrap(),
            BoundQuery::bind(&p, &cat).unwrap(),
        );
        assert_eq!(q.canonical_hash(), p.canonical_hash(), "{q:?} vs {p:?}");
        assert_eq!(q.template_hash(), p.template_hash(), "{q:?} vs {p:?}");
        let s = JoinTopology::structural_key(&q, &bq);
        d[0].word(q.canonical_hash());
        d[1].word(q.template_hash());
        d[2].word(s);
        d[3].word(JoinTopology::structural_key(&p, &bp));
        for sub in SubPlanQuery::project_all(&q) {
            d[4].word(sub.query.canonical_hash());
        }
        if !q.predicates.is_empty() {
            first.get_or_insert([q.canonical_hash(), q.template_hash(), s]);
        }
    }
    (d.map(|d| d.0), first.unwrap())
}

#[test]
fn query_keys_match_goldens() {
    let (digests, first) = corpus_keys();
    assert_eq!(
        digests,
        [
            13927517129823436058,
            17971510224220842914,
            10143547074344069060,
            4426650600681678362,
            1589997242306514097,
        ],
        "canonical/template/structural key digests moved"
    );
    assert_eq!(
        first,
        [7516538230034682432, 9199202053704584299, 633875442070709120]
    );
}

#[test]
fn hand_built_keys_match_goldens() {
    let q = JoinQuery {
        tables: vec!["t0".into(), "t1".into(), "t2".into()],
        joins: vec![
            JoinEdge::new(0, "id", 1, "fk"),
            JoinEdge::new(1, "id", 2, "fk"),
        ],
        predicates: vec![
            Predicate::new(0, "a", Region::between(i64::MIN, -7)),
            Predicate::new(2, "b", Region::In(vec![i64::MAX, -1, 0])),
        ],
    };
    let bound = BoundQuery::bind(&q, &catalog()).unwrap();
    let single = JoinQuery::single("t3", vec![]);
    let keys = [
        q.canonical_hash(),
        q.template_hash(),
        JoinTopology::structural_key(&q, &bound),
        single.canonical_hash(),
        single.template_hash(),
    ];
    assert_eq!(
        keys,
        [
            6234844957169139543,
            15894107679282735019,
            4205153888085855943,
            589412779065292508,
            589412779065292508,
        ]
    );
}

#[test]
fn support_hashes_match_goldens() {
    let seeds = ["", "x", "query_keys_match_goldens", "naïve"].map(seed_for);
    assert_eq!(
        seeds,
        [
            14695981039346656037,
            12638214688346347271,
            7266950464785858143,
            2199317677881897643,
        ]
    );
    let mut h = FnvHasher::default();
    h.write(b"cardbench");
    let bytes = h.finish();
    h.write_u64(u64::MAX);
    h.write_usize(7);
    assert_eq!(
        [bytes, h.finish()],
        [15206853884339345963, 13347978656702531905]
    );
}

/// Digest of every cell of a catalog, table by table in catalog order:
/// the row and column counts, then each column's cells, a NULL as one
/// word and a value as a marker word followed by the value.
fn catalog_digest(cat: &Catalog) -> u64 {
    let mut d = Digest::new();
    for t in cat.tables() {
        d.word(t.row_count() as u64);
        d.word(t.column_count() as u64);
        for c in t.columns() {
            for v in c.iter() {
                match v {
                    None => d.word(u64::MAX),
                    Some(v) => {
                        d.word(1);
                        d.word(v as u64);
                    }
                }
            }
        }
    }
    d.0
}

/// Every cell of both generated datasets, at `tiny(9)` and at the default
/// scale: `[STATS tiny, STATS default, IMDB tiny, IMDB default]`. The
/// generators' skew and coupling are fixed calibrations; this pins them.
/// Debug and release builds agree.
#[test]
fn dataset_digests_match_goldens() {
    use cardbench::datagen::{imdb_catalog, stats_catalog, ImdbConfig, StatsConfig};
    let digests = [
        catalog_digest(&stats_catalog(&StatsConfig::tiny(9))),
        catalog_digest(&stats_catalog(&StatsConfig::default())),
        catalog_digest(&imdb_catalog(&ImdbConfig::tiny(9))),
        catalog_digest(&imdb_catalog(&ImdbConfig::default())),
    ];
    assert_eq!(
        digests,
        [
            10977352600957645179,
            11741617353429812946,
            7170435207289520883,
            9819063561624974998,
        ],
        "a generated dataset moved"
    );
}

/// Every generated query and label at `BenchConfig::fast(9)`:
/// `[STATS-CEB, JOB-LIGHT, STATS training, IMDB training]`, each a digest
/// of `(canonical_hash, cardinality bits)` per query in generation order.
/// The bits keep the sign of a zero label, which the learned fits read:
/// two IMDB training labels are −0.0 (an empty root table).
/// Debug and release builds agree.
#[test]
fn generated_workload_digests_match_goldens() {
    use cardbench::harness::{Bench, BenchConfig};
    fn digest<'a>(labelled: impl Iterator<Item = (&'a JoinQuery, f64)>) -> u64 {
        let mut d = Digest::new();
        for (q, card) in labelled {
            d.word(q.canonical_hash());
            d.word(card.to_bits());
        }
        d.0
    }
    let bench = Bench::build(BenchConfig::fast(9));
    let workload = |wl: &Workload| digest(wl.queries.iter().map(|q| (&q.query, q.true_card)));
    let training = |t: &cardbench::estimators::lw::TrainingSet| {
        digest(t.queries.iter().zip(t.cards.iter().copied()))
    };
    let digests = [
        workload(&bench.stats_wl),
        workload(&bench.imdb_wl),
        training(&bench.stats_train),
        training(&bench.imdb_train),
    ];
    assert_eq!(
        digests,
        [
            4972528236059578516,
            13086643073881413550,
            8588871062355200621,
            18057190940538847371,
        ],
        "a generated query or label moved"
    );
}
