//! The conformance table's columns. Each test checks one promise of
//! `kinds::TABLE` for every row; `tests/estimator_invariants.rs` checks
//! the `ROWS` and `JOINS` columns. What the other rows measure is printed
//! by an optimized build (`cargo test --release --test conformance --
//! --nocapture`). The last two tests plan every query with every row's
//! fit: the planned P-Error is `metrics::p_error`, and the EXPLAIN text
//! of the TrueCard and PostgreSQL plans is pinned.

mod kinds;

use std::hash::Hasher;
use std::sync::OnceLock;

use cardbench::datagen::stats::{temporal_split, SPLIT_DAY};
use cardbench::datagen::{stats_catalog, StatsConfig};
use cardbench::engine::{explain, CardMap, Database, TrueCardService};
use cardbench::estimators::lw::TrainingSet;
use cardbench::harness::{
    build_estimator, estimate_all, plan_query_via, Bench, BenchConfig, EstimatorSettings,
    PlannedQuery,
};
use cardbench::prelude::*;
use cardbench::query::{JoinEdge, Region, TableMask};
use cardbench::workload::{stats_ceb, training_workload, WorkloadConfig};
use cardbench_support::hash::FnvHasher;
use cardbench_support::par;
use cardbench_support::proptest::prelude::*;

use kinds::{Row, Update, DROP, ORDER, TABLE, WIDEN};

/// Whether to measure what a row does not promise. Such numbers are
/// printed, never asserted, and an unoptimized build would spend most
/// of this binary's time on them (NeuroCard^E's estimates).
const MEASURE: bool = !cfg!(debug_assertions);

/// One shared benchmark for the whole test binary.
fn bench() -> &'static Bench {
    static B: OnceLock<Bench> = OnceLock::new();
    B.get_or_init(|| Bench::build(BenchConfig::fast(9)))
}

/// A fit of the row's kind on `db`, trained and set as [`bench`]'s.
fn fit(row: &Row, db: &Database) -> Box<dyn CardEst> {
    let b = bench();
    build_estimator(row.kind, db, &b.stats_train, &b.config.settings).est
}

type Fitted = (Box<dyn CardEst>, Vec<u64>);

/// `f` over every row, its fit on [`bench`] and that fit's [`ceb_bits`],
/// two rows at a time. The fits are made once per test binary.
fn par_rows<R: Send>(f: impl Fn(&Row, &dyn CardEst, &[u64]) -> R + Sync) -> Vec<R> {
    static FITTED: OnceLock<Vec<Fitted>> = OnceLock::new();
    let db = &bench().stats_db;
    let fitted = FITTED.get_or_init(|| {
        par::map(&TABLE, 2, |_, row| {
            let est = fit(row, db);
            let bits = ceb_bits(est.as_ref(), db);
            (est, bits)
        })
    });
    par::map(fitted, 2, |i, (est, bits)| f(&TABLE[i], est.as_ref(), bits))
}

/// The sub-plan set of each query of `wl`.
fn sets(wl: &Workload) -> Vec<Vec<SubPlanQuery>> {
    let queries = wl.queries.iter().map(|wq| &wq.query);
    queries.map(SubPlanQuery::project_all).collect()
}

/// The sub-plan sets of [`bench`]'s STATS-CEB workload.
fn ceb_sets() -> &'static [Vec<SubPlanQuery>] {
    static S: OnceLock<Vec<Vec<SubPlanQuery>>> = OnceLock::new();
    S.get_or_init(|| sets(&bench().stats_wl))
}

/// `estimate_batch` bits over every workload sub-plan, in order.
fn ceb_bits(est: &dyn CardEst, db: &Database) -> Vec<u64> {
    let sets = ceb_sets().iter();
    bits(sets.flat_map(|subs| est.estimate_batch(db, subs)))
}

fn bits(answers: impl IntoIterator<Item = f64>) -> Vec<u64> {
    answers.into_iter().map(f64::to_bits).collect()
}

/// The whole of `q` as a sub-plan.
fn whole(q: JoinQuery) -> SubPlanQuery {
    SubPlanQuery::project(&q, TableMask::full(q.table_count()))
}

/// The sub-plan sets of random acyclic 2–5-table STATS queries from a
/// generator seed.
fn random_sets(seed: u64) -> Vec<Vec<SubPlanQuery>> {
    let cfg = WorkloadConfig {
        seed,
        templates: 6,
        queries: 3,
        max_tables: 5,
        max_predicates: 4,
        retries: 10,
        max_subplan_card: 1e6,
    };
    sets(&stats_ceb(&bench().stats_db, &cfg))
}

/// Sub-plans no workload generates, 60 on STATS: `>= 5` on each key
/// column; on each table's first filterable column an empty range,
/// `= i64::MAX - 1`, an empty IN-list and a contradictory pair; `>= 1`
/// on every filterable column of each table; and the unfiltered
/// spanning tree of the whole join graph.
fn hostile(db: &Database) -> Vec<SubPlanQuery> {
    let catalog = db.catalog();
    let mut out = Vec::new();
    for t in catalog.tables() {
        let columns = &t.schema().columns;
        let on = |c: usize, r: Region| Predicate::new(0, &columns[c].name, r);
        let keys = (0..columns.len()).filter(|&c| columns[c].kind.is_key());
        let mut preds: Vec<_> = keys.map(|c| vec![on(c, Region::ge(5))]).collect();
        let filterable = t.schema().filterable_columns();
        let (f, max) = (filterable[0], i64::MAX - 1);
        let odd = [(5, 3), (max, max)].map(|(lo, hi)| Region::between(lo, hi));
        preds.extend(odd.map(|r| vec![on(f, r)]));
        preds.push(vec![on(f, Region::in_list(vec![]))]);
        preds.push(vec![on(f, Region::ge(100)), on(f, Region::le(0))]);
        preds.push(filterable.iter().map(|&c| on(c, Region::ge(1))).collect());
        out.extend(preds.into_iter().map(|p| JoinQuery::single(t.name(), p)));
    }
    let mut tree = JoinQuery::single(catalog.tables()[0].name(), vec![]);
    for j in catalog.joins() {
        let at = |name: &str| tree.tables.iter().position(|t| t == name);
        let (old, new, old_col, new_col) = match (at(&j.left_table), at(&j.right_table)) {
            (Some(l), None) => (l, &j.right_table, &j.left_column, &j.right_column),
            (None, Some(r)) => (r, &j.left_table, &j.right_column, &j.left_column),
            _ => continue,
        };
        tree.tables.push(new.clone());
        let edge = JoinEdge::new(old, old_col, tree.tables.len() - 1, new_col);
        tree.joins.push(edge);
    }
    assert_eq!(tree.table_count(), catalog.table_count(), "a spanning tree");
    out.push(tree);
    out.into_iter().map(whole).collect()
}

/// Asserts that every answer is finite and non-negative.
fn assert_sane(name: &str, subs: &[SubPlanQuery], answers: Vec<f64>) {
    for (sub, e) in subs.iter().zip(answers) {
        assert!(e.is_finite() && e >= 0.0, "{name}: {e} for {:?}", sub.query);
    }
}

#[test]
fn fits_agree_and_match_the_goldens() {
    let db = &bench().stats_db;
    let moved = par_rows(|row, est, bits| {
        let name = row.kind.name();
        let again = ceb_bits(fit(row, db).as_ref(), db);
        assert!(bits == again, "{name}: two fits differ");
        let parent = row.parent_bits().into_iter().flatten();
        for (i, (&new, &old)) in bits.iter().zip(parent).enumerate() {
            let (new, old) = (f64::from_bits(new), f64::from_bits(old));
            let close = (new - old).abs() <= 1e-12 * old.abs();
            assert!(close, "{name} sub-plan {i}: {new} vs the parent's {old}");
        }
        let mut h = FnvHasher::default();
        bits.iter().for_each(|&b| h.write_u64(b));
        let (d, bytes, n) = (h.finish(), est.model_size_bytes(), bits.len());
        let got = format!("{name}: digest {d:#018x}, model bytes {bytes}, {n} sub-plans");
        ((d, bytes, n) != (row.digest, row.model_bytes, 308)).then_some(got)
    });
    let moved: Vec<String> = moved.into_iter().flatten().collect();
    assert!(moved.is_empty(), "{}", moved.join("\n"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// `estimate_batch` answers each sub-plan bit for bit as `estimate`
    /// does, on random STATS queries and on a filtered 3-table query
    /// through the FK-FK `comments`–`badges` edge.
    #[test]
    fn estimate_batch_equals_estimate(seed in 0u64..1000) {
        let db = &bench().stats_db;
        let fk_fk = JoinQuery {
            tables: vec!["users".into(), "comments".into(), "badges".into()],
            joins: vec![JoinEdge::new(0, "Id", 1, "UserId"), JoinEdge::new(1, "UserId", 2, "UserId")],
            predicates: vec![Predicate::new(0, "Reputation", Region::ge(5))],
        };
        let mut sets = random_sets(seed);
        sets.push(SubPlanQuery::project_all(&fk_fk));
        par_rows(|row, est, _| for subs in &sets {
            let each = bits(subs.iter().map(|sub| est.estimate(db, sub)));
            prop_assert_eq!(bits(est.estimate_batch(db, subs)), each, "{}", row.kind.name());
        });
    }

    /// What `serve::coalesce` sends: one batch concatenated from the
    /// sub-plans of different parent queries, permuted and with
    /// duplicates. Every slot holds the bits of its sub-plan estimated
    /// alone: a batch shares buffers and compiled plans, never
    /// arithmetic.
    #[test]
    fn batch_composition_never_moves_an_estimate(seed in 0u64..1000, order in 0u64..1000) {
        let mut batch = random_sets(seed).concat();
        let mut state = order;
        let mut next = |m: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % m
        };
        for _ in 0..batch.len() / 2 {
            let dup = batch[next(batch.len())].clone();
            batch.push(dup);
        }
        for i in (1..batch.len()).rev() {
            batch.swap(i, next(i + 1));
        }
        let db = &bench().stats_db;
        par_rows(|row, est, _| {
            let alone = batch.iter().map(|sub| est.estimate_batch(db, std::slice::from_ref(sub))[0]);
            prop_assert_eq!(bits(est.estimate_batch(db, &batch)), bits(alone), "{}", row.kind.name());
        });
    }
}

#[test]
fn hostile_subplans_are_finite_and_nonnegative() {
    let db = &bench().stats_db;
    let subs = hostile(db);
    assert_eq!(subs.len(), 60);
    par_rows(|row, est, _| {
        let one_row = |sub: &SubPlanQuery| est.estimate_batch(db, std::slice::from_ref(sub))[0];
        assert_sane(row.kind.name(), &subs, subs.iter().map(one_row).collect());
        let each = subs.iter().map(|sub| est.estimate(db, sub));
        assert_sane(row.kind.name(), &subs, each.collect());
    });
    // Every workload sub-plan of both schemas at another seed, and a
    // filter on a key column.
    let b = Bench::build(BenchConfig::fast(41));
    let key = [Predicate::new(0, "Id", Region::ge(5))];
    let key = vec![whole(JoinQuery::single("users", key.into()))];
    par::map(&TABLE, 2, |_, row| {
        for (db, wl, train, extra) in [
            (&b.stats_db, &b.stats_wl, &b.stats_train, Some(&key)),
            (&b.imdb_db, &b.imdb_wl, &b.imdb_train, None),
        ] {
            let est = build_estimator(row.kind, db, train, &b.config.settings).est;
            for subs in sets(wl).into_iter().chain(extra.cloned()) {
                assert_sane(row.kind.name(), &subs, est.estimate_batch(db, &subs));
            }
        }
    });
}

/// `supports_update()` is what the row says; an update on a small
/// catalog keeps estimating; two fit → `apply_inserts` runs agree bit
/// for bit; and an [`Update::Refit`] row answers as a refit on the union.
#[test]
fn updates_are_deterministic_and_match_a_refit() {
    let (stale, inserts) = temporal_split(&stats_catalog(&StatsConfig::tiny(44)), SPLIT_DAY);
    let settings = EstimatorSettings::fast(44);
    let (queries, cards) = training_workload(&Database::new(stale.clone()), 40, 3, 44);
    let train = TrainingSet { queries, cards };
    for row in TABLE.iter().filter(|row| row.update != Update::No) {
        let mut db = Database::new(stale.clone());
        let mut est = build_estimator(row.kind, &db, &train, &settings).est;
        db.append_inserts(&inserts).unwrap();
        est.apply_inserts(&db, &inserts);
        let e = est.estimate(&db, &whole(JoinQuery::single("users", vec![])));
        assert!(e.is_finite() && e > 0.0, "{}: {e}", row.kind.name());
    }

    let (stale, inserts) = temporal_split(&stats_catalog(&bench().config.stats), SPLIT_DAY);
    assert!(inserts.iter().any(|t| t.row_count() > 0));
    let drift = par_rows(|row, est, _| {
        let name = row.kind.name();
        assert_eq!(est.supports_update(), row.update != Update::No, "{name}");
        if row.update == Update::No {
            return None;
        }
        let update = || {
            let mut db = Database::new(stale.clone());
            let mut est = fit(row, &db);
            db.append_inserts(&inserts).unwrap();
            est.apply_inserts(&db, &inserts);
            (ceb_bits(est.as_ref(), &db), db)
        };
        let ((a, db), (b, _)) = std::thread::scope(|scope| {
            let other = scope.spawn(update);
            (update(), other.join().expect("an update does not panic"))
        });
        assert!(a == b, "{name}: two updates differ");
        if row.update == Update::Drift && !MEASURE {
            return None;
        }
        let refit = ceb_bits(fit(row, &db).as_ref(), &db);
        let pairs = a.into_iter().zip(refit).filter(|(u, r)| u != r);
        let moved = pairs.map(|(u, r)| (f64::from_bits(u), f64::from_bits(r)));
        let (n, max) = moved.fold((0, 0.0f64), |(n, max), (u, r)| {
            (n + 1, max.max((u - r).abs() / r))
        });
        let drifts = row.update == Update::Drift;
        assert!(n == 0 || drifts, "{name}: {n} differ from a refit");
        (n > 0).then(|| format!("{name}: {n} of 308 differ from a refit, max relative {max:.1}"))
    });
    for line in drift.into_iter().flatten() {
        println!("{line}");
    }
}

/// The sub-plans that `law` compares `sub` with.
fn variants(law: u8, sub: &SubPlanQuery) -> Vec<SubPlanQuery> {
    let edit = |f: &dyn Fn(&mut JoinQuery)| {
        let mut v = sub.clone();
        f(&mut v.query);
        v
    };
    let (preds, n) = (&sub.query.predicates, sub.query.table_count());
    let widen = |i: usize| match preds[i].region {
        Region::Range { lo, hi } => {
            let lo = if lo == i64::MIN { lo } else { lo - 1 };
            let hi = if hi == i64::MAX { hi } else { hi + 1 };
            Some(edit(&|q| q.predicates[i].region = Region::Range { lo, hi }))
        }
        Region::In(_) => None,
    };
    let reverse = |q: &mut JoinQuery| {
        q.tables.reverse();
        for j in &mut q.joins {
            (j.left, j.right) = (n - 1 - j.left, n - 1 - j.right);
        }
        q.predicates
            .iter_mut()
            .for_each(|p| p.table = n - 1 - p.table);
    };
    match law {
        DROP => (0..preds.len())
            .map(|i| edit(&|q| drop(q.predicates.remove(i))))
            .collect(),
        WIDEN => (0..preds.len()).filter_map(widen).collect(),
        _ => (n > 1).then(|| edit(&reverse)).into_iter().collect(),
    }
}

/// Compares each workload sub-plan's estimate with its [`variants`]':
/// asserted for the rows that promise `law`, counted and printed for the
/// rest.
fn check_law(law: u8, what: &str) {
    let db = &bench().stats_db;
    let pairs = ceb_sets().iter().flatten().enumerate();
    let pairs = pairs.flat_map(|(i, sub)| variants(law, sub).into_iter().map(move |v| (i, v)));
    let (base, vars): (Vec<usize>, Vec<SubPlanQuery>) = pairs.unzip();
    let holds = |b: u64, v: f64| match (law, f64::from_bits(b)) {
        (ORDER, b) => (b - v).abs() <= 1e-9 * b.abs().max(v.abs()),
        (_, b) => v >= b * (1.0 - 1e-9),
    };
    let broken = par_rows(|row, est, at| {
        let name = row.kind.name();
        let promised = row.makes(law);
        if !promised && !MEASURE {
            return None;
        }
        let varied = est.estimate_batch(db, &vars).into_iter().zip(&base);
        let n = varied.filter(|&(v, &i)| !holds(at[i], v)).count();
        assert!(n == 0 || !promised, "{name}: {what} breaks {n} times");
        (!promised).then(|| format!("{name} {n}"))
    });
    let broken: Vec<String> = broken.into_iter().flatten().collect();
    if MEASURE {
        let (checks, broken) = (vars.len(), broken.join(", "));
        println!("{what}, {checks} checks; broken: {broken}");
    }
}

#[test]
fn dropping_a_conjunct_never_lowers_the_estimate() {
    check_law(DROP, "dropping a conjunct");
}

#[test]
fn widening_a_range_never_lowers_the_estimate() {
    check_law(WIDEN, "widening a range");
}

#[test]
fn table_order_does_not_matter() {
    check_law(ORDER, "reversing the table order");
}

/// FNV-1a of every row's planned P-Error bits, rows in table order and
/// queries in workload order.
const PLANNED_P_ERROR_DIGEST: u64 = 0x3c496492e062aaf0;

/// FNV-1a of the EXPLAIN text of the TrueCard and PostgreSQL plans of
/// every query, each costed with the estimated and then the true cards.
const EXPLAIN_DIGEST: u64 = 0x268db2dc753b3f5b;

/// Every STATS-CEB query planned with `est` as Table 2 plans it, beside
/// the estimated and true `CardMap`s its record carries (keyed by the
/// masks of its sub-plans).
fn planned(est: &dyn CardEst) -> Vec<(&'static WorkloadQuery, PlannedQuery, CardMap, CardMap)> {
    let b = bench();
    let (db, truth, cost) = (&b.stats_db, TrueCardService::new(), CostModel::default());
    let fallback = OnceLock::new();
    let estimate = |subs: &[SubPlanQuery]| estimate_all(est, db, subs, None);
    let plan = |wq| plan_query_via(db, wq, &estimate, &truth, &cost, &fallback);
    b.stats_wl
        .queries
        .iter()
        .map(|wq| {
            let p = plan(wq);
            let (bound, _) = p.plan.as_ref().expect("planned");
            let topo = db.topology(&wq.query, bound);
            let (mut est_cards, mut true_cards) = (CardMap::new(), CardMap::new());
            for (i, sub) in p.subs.iter().enumerate() {
                assert_eq!(sub.mask, topo.masks()[i], "the record is in topology order");
                est_cards.insert_bounded(sub.mask, p.sub_est_cards[i], topo.cross_bound(i));
                true_cards.insert(sub.mask, p.sub_true_cards[i]);
            }
            (wq, p, est_cards, true_cards)
        })
        .collect()
}

#[test]
fn planned_p_error_is_metrics_p_error() {
    let (db, cost) = (&bench().stats_db, CostModel::default());
    let bits = par_rows(|row, est, _| {
        let planned = planned(est).into_iter();
        let each = planned.map(|(wq, p, est_cards, true_cards)| {
            let (bound, _) = p.plan.as_ref().expect("planned");
            let pe = p_error(db, &cost, &wq.query, bound, &est_cards, &true_cards);
            let name = row.kind.name();
            assert_eq!(p.p_error.to_bits(), pe.to_bits(), "{name} Q{}", wq.id);
            pe.to_bits()
        });
        each.collect::<Vec<u64>>()
    });
    let mut h = FnvHasher::default();
    bits.iter().flatten().for_each(|&b| h.write_u64(b));
    assert_eq!(h.finish(), PLANNED_P_ERROR_DIGEST, "{:#018x}", h.finish());
}

#[test]
fn explain_text_is_pinned() {
    let (db, cost) = (&bench().stats_db, CostModel::default());
    let texts = par_rows(|row, est, _| {
        if !matches!(row.kind, EstimatorKind::TrueCard | EstimatorKind::Postgres) {
            return String::new();
        }
        let mut text = String::new();
        for (wq, p, est_cards, true_cards) in planned(est) {
            let (bound, plan) = p.plan.as_ref().expect("planned");
            for cards in [&est_cards, &true_cards] {
                text += &explain(plan, db, bound, &wq.query.tables, &cost, cards);
            }
        }
        text
    });
    let mut h = FnvHasher::default();
    texts.iter().for_each(|t| h.write(t.as_bytes()));
    assert_eq!(h.finish(), EXPLAIN_DIGEST, "{:#018x}", h.finish());
}
