//! Differential guarantees of the sketch estimator, checked on the
//! generated STATS catalog: the sharded parallel build, the streaming
//! refresh, and the batched estimate path must all be *bit-identical* to
//! their sequential / from-scratch counterparts, and estimates must stay
//! finite under poisonous inputs.

use cardbench_datagen::stats::{churn_sample, temporal_split, SPLIT_DAY};
use cardbench_datagen::{stats_catalog, StatsConfig};
use cardbench_engine::{exact_cardinality, Database};
use cardbench_estimators::CardEst;
use cardbench_query::{connected_subsets, JoinQuery, Predicate, Region, SubPlanQuery, TableMask};
use cardbench_sketch::{SketchConfig, SketchEst};
use cardbench_workload::{stats_ceb, WorkloadConfig};

fn tiny_db(seed: u64) -> Database {
    Database::new(stats_catalog(&StatsConfig::tiny(seed)))
}

/// The sharded merge-tree build lands on exactly the sequential state,
/// for any shard count — merges are commutative/associative over integer
/// state, and the harness relies on this to parallelize freely.
#[test]
fn sharded_build_is_bit_identical_to_sequential() {
    let db = tiny_db(21);
    let cfg = SketchConfig::with_seed(21);
    let sequential = SketchEst::fit_sharded(&db, &cfg, 1);
    for shards in [2, 3, 4, 8, 13] {
        let sharded = SketchEst::fit_sharded(&db, &cfg, shards);
        assert_eq!(
            sequential.state_digest(),
            sharded.state_digest(),
            "{shards} shards"
        );
    }
    // The auto-resolved default (shards = 0) is covered too.
    let auto = SketchEst::fit(&db, &cfg);
    assert_eq!(sequential.state_digest(), auto.state_digest());
}

/// Streaming the temporal-split delta into the stale model lands on
/// exactly the state a from-scratch rebuild produces: refresh-in-place
/// is a rebuild, minus the scan. And it pays: on the shifted data the
/// refreshed model's median sub-plan Q-Error is below the stale one's.
#[test]
fn insert_stream_refresh_matches_full_rebuild() {
    let full = stats_catalog(&StatsConfig::tiny(22));
    let (stale_cat, inserts) = temporal_split(&full, SPLIT_DAY);
    assert!(inserts.iter().any(|t| t.row_count() > 0));

    let stale_db = Database::new(stale_cat);
    let cfg = SketchConfig::with_seed(22);
    let stale = SketchEst::fit(&stale_db, &cfg);
    let mut refreshed = stale.clone();

    let mut shifted = stale_db;
    shifted.append_inserts(&inserts).unwrap();
    refreshed.apply_inserts(&shifted, &inserts);

    let rebuilt = SketchEst::fit_sharded(&shifted, &cfg, 1);
    assert_eq!(refreshed.state_digest(), rebuilt.state_digest());

    let wl = stats_ceb(
        &shifted,
        &WorkloadConfig {
            templates: 8,
            queries: 10,
            max_tables: 4,
            ..WorkloadConfig::stats_ceb(22)
        },
    );
    let median_q_error = |est: &SketchEst| {
        let mut q_errors: Vec<f64> = wl
            .queries
            .iter()
            .flat_map(|wq| {
                connected_subsets(&wq.query)
                    .into_iter()
                    .map(|mask| SubPlanQuery::project(&wq.query, mask))
            })
            .map(|sub| {
                let e = est.estimate(&shifted, &sub).max(1.0);
                let t = exact_cardinality(&shifted, &sub.query).unwrap().max(1.0);
                (e / t).max(t / e)
            })
            .collect();
        q_errors.sort_by(f64::total_cmp);
        q_errors[q_errors.len() / 2]
    };
    let (stale_q, refreshed_q) = (median_q_error(&stale), median_q_error(&refreshed));
    assert!(
        refreshed_q < stale_q,
        "refreshed {refreshed_q} vs stale {stale_q}"
    );
}

/// Batched estimation is bit-identical to one-at-a-time estimation over
/// every connected sub-plan of a generated workload — the memo only
/// caches pure functions of the same inputs.
#[test]
fn estimate_batch_is_bit_identical_to_estimate() {
    let db = tiny_db(23);
    let wl = stats_ceb(
        &db,
        &WorkloadConfig {
            templates: 10,
            queries: 14,
            max_tables: 4,
            ..WorkloadConfig::stats_ceb(23)
        },
    );
    let est = SketchEst::fit(&db, &SketchConfig::with_seed(23));
    let subs: Vec<SubPlanQuery> = wl
        .queries
        .iter()
        .flat_map(|wq| {
            connected_subsets(&wq.query)
                .into_iter()
                .map(|mask| SubPlanQuery::project(&wq.query, mask))
        })
        .collect();
    assert!(subs.len() > 20, "workload too small: {}", subs.len());
    let batched = est.estimate_batch(&db, &subs);
    assert_eq!(batched.len(), subs.len());
    for (sub, b) in subs.iter().zip(&batched) {
        let single = est.estimate(&db, sub);
        assert!(
            single.to_bits() == b.to_bits(),
            "batch {} vs single {} on {:?}",
            b,
            single,
            sub.query.tables
        );
    }
}

/// Delete streams are absorbed without panicking, reverse the row/mass
/// counts they touch, and a full churn delete of the insert delta is
/// still safe (counts saturate at zero rather than wrapping).
#[test]
fn delete_stream_is_safe_and_reversing() {
    let db = tiny_db(24);
    let cfg = SketchConfig::with_seed(24);
    let mut est = SketchEst::fit(&db, &cfg);
    let before = est.state_digest();

    let churn = churn_sample(db.catalog(), 0.3, 24);
    assert!(churn.iter().any(|t| t.row_count() > 0));
    est.apply_deletes(&churn);
    assert_ne!(est.state_digest(), before, "deletes must change state");

    // Estimates stay finite and non-negative after heavy churn …
    let sub = SubPlanQuery {
        mask: TableMask::single(0),
        query: JoinQuery::single("users", vec![]),
    };
    let e = est.estimate(&db, &sub);
    assert!(e.is_finite() && e >= 0.0, "{e}");

    // … even after deleting far more than remains (saturation).
    let everything = churn_sample(db.catalog(), 1.0, 24);
    est.apply_deletes(&everything);
    est.apply_deletes(&everything);
    let e = est.estimate(&db, &sub);
    assert!(e.is_finite() && e >= 0.0, "{e}");
    assert_eq!(e, 0.0, "all rows deleted twice over");
}

/// FNV-1a over 64-bit words.
fn fnv_words(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut d: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        d = (d ^ w).wrapping_mul(0x0000_0100_0000_01b3);
    }
    d
}

/// `(default/state, state_digest, FNV digest of the estimate_batch bits)`
/// of every golden state, in the order of [`GOLDENS`].
fn golden_states() -> Vec<(String, u64, u64)> {
    let full = tiny_db(26);
    let (stale_cat, inserts) = temporal_split(full.catalog(), SPLIT_DAY);
    let stale = Database::new(stale_cat);
    let churn = churn_sample(full.catalog(), 0.6, 26);
    let wl = stats_ceb(
        &full,
        &WorkloadConfig {
            templates: 6,
            queries: 8,
            max_tables: 4,
            ..WorkloadConfig::stats_ceb(26)
        },
    );
    let subs: Vec<SubPlanQuery> = wl
        .queries
        .iter()
        .flat_map(|wq| {
            connected_subsets(&wq.query)
                .into_iter()
                .map(|mask| SubPlanQuery::project(&wq.query, mask))
        })
        .collect();
    assert!(subs.len() > 20, "workload too small: {}", subs.len());

    let cfg = &SketchConfig::with_seed(26);
    let mut out = Vec::new();
    let mut record = |state: &str, est: &SketchEst| {
        let bits = est
            .estimate_batch(&full, &subs)
            .into_iter()
            .map(f64::to_bits);
        out.push((
            format!("default/{state}"),
            est.state_digest(),
            fnv_words(bits),
        ));
    };
    let fit = SketchEst::fit_sharded(&full, cfg, 1);
    record("fit_1", &fit);
    record("fit_3", &SketchEst::fit_sharded(&full, cfg, 3));
    let mut refreshed = SketchEst::fit_sharded(&stale, cfg, 1);
    refreshed.apply_inserts(&full, &inserts);
    record("inserts", &refreshed);
    let mut churned = fit;
    churned.apply_deletes(&churn);
    record("deletes_1", &churned);
    // The second pass deletes more than remains: counts saturate.
    churned.apply_deletes(&churn);
    record("deletes_2", &churned);
    out
}

/// State and estimate digests recorded before the streaming kernel,
/// the cached distinct counts and the masked cell index existed: the
/// model and every estimate are bit for bit what they were.
const GOLDENS: [(&str, u64, u64); 5] = [
    ("default/fit_1", 0x2b02093341ff95f2, 0x1eb05b39ada2280c),
    ("default/fit_3", 0x2b02093341ff95f2, 0x1eb05b39ada2280c),
    ("default/inserts", 0x2b02093341ff95f2, 0x1eb05b39ada2280c),
    ("default/deletes_1", 0x684d01c9aaad9d50, 0x743ada1de45aab8a),
    ("default/deletes_2", 0x9abdb2e3cf976d7b, 0xf739742d5bc540af),
];

#[test]
fn states_and_estimates_match_goldens() {
    let got = golden_states();
    let table: String = got
        .iter()
        .map(|(name, state, est)| format!("    ({name:?}, {state:#018x}, {est:#018x}),\n"))
        .collect();
    let want: Vec<(String, u64, u64)> = GOLDENS
        .iter()
        .map(|&(name, state, est)| (name.to_string(), state, est))
        .collect();
    assert!(got == want, "goldens moved; this build gives:\n{table}");
}

/// ChaosEst-style poison hardening: whatever region shapes a predicate
/// carries — inverted, saturating, duplicated, far outside the data
/// domain — the sketch never returns NaN, infinity, or a negative.
#[test]
fn poisonous_workload_estimates_stay_finite() {
    let db = tiny_db(25);
    let est = SketchEst::fit(&db, &SketchConfig::with_seed(25));
    let extremes = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];
    let mut regions = vec![Region::In(vec![]), Region::In(extremes.to_vec())];
    for lo in extremes {
        for hi in extremes {
            regions.push(Region::Range { lo, hi });
        }
        regions.push(Region::le(lo));
        regions.push(Region::ge(lo));
    }
    let wl = stats_ceb(
        &db,
        &WorkloadConfig {
            templates: 6,
            queries: 8,
            max_tables: 3,
            ..WorkloadConfig::stats_ceb(25)
        },
    );
    for wq in &wl.queries {
        for region in &regions {
            let mut q = wq.query.clone();
            // Poison every predicate with the hostile region.
            for p in &mut q.predicates {
                p.region = region.clone();
            }
            // And add one targeting a key column (every STATS table's
            // first column is its `Id` primary key).
            q.predicates.push(Predicate {
                table: 0,
                column: "Id".to_string(),
                region: region.clone(),
            });
            let sub = SubPlanQuery {
                mask: TableMask::full(q.table_count()),
                query: q,
            };
            let e = est.estimate(&db, &sub);
            assert!(e.is_finite() && e >= 0.0, "Q{} with {region:?}: {e}", wq.id);
        }
    }
}
