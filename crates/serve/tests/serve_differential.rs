//! Concurrent-vs-sequential bit-identity: N sessions replaying a fixed
//! workload must produce per-query planning results bit-identical to the
//! sequential harness path, for every registered estimator kind and
//! under injected chaos faults — on both serving routes.
//!
//! This is the serving layer's core correctness contract: neither the
//! inline tick nor cross-session coalescing (batch concatenation +
//! deduplication, arbitrary tick composition under scheduler
//! nondeterminism) may perturb any session's numbers. It holds because
//! per-call RNG is keyed by the sub-plan's canonical hash and
//! `estimate_batch` is per-slot composition-independent — both already
//! pinned at the estimator layer; here we pin the end-to-end service
//! path. Which route a test took is asserted by the server's own job
//! counters, never assumed from the host's core count.

use std::sync::{Arc, OnceLock};

use cardbench_engine::{CostModel, Database, TrueCardService};
use cardbench_estimators::chaos::{ChaosConfig, ChaosEst, FaultClass};
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_harness::{
    build_estimator, estimate_all, plan_query_via, Bench, BenchConfig, PlannedQuery,
};
use cardbench_serve::{ServeConfig, ServeStats, Server};
use cardbench_workload::Workload;

/// Shared fixture: the fast STATS benchmark with the database behind an
/// `Arc` so the server and its sessions can own it.
struct Ctx {
    db: Arc<Database>,
    wl: Workload,
    bench: Bench,
}

fn ctx() -> &'static Ctx {
    static C: OnceLock<Ctx> = OnceLock::new();
    C.get_or_init(|| {
        let mut bench = Bench::build(BenchConfig::fast(11));
        let db = Arc::new(std::mem::replace(
            &mut bench.stats_db,
            Database::new(cardbench_storage::Catalog::new()),
        ));
        let wl = bench.stats_wl.clone();
        Ctx { db, wl, bench }
    })
}

const SESSIONS: usize = 4;

/// The server's routing threshold: while live sessions ≤ this, every
/// request runs its tick inline.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Which serving route a replay must take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// At most `cores()` sessions: every request ticks on its own thread.
    Inline,
    /// `SESSIONS` replaying plus `cores()` idle sessions held open: live
    /// sessions always exceed the cores, so every request is queued.
    Coalesced,
}

/// Asserts from the server's job counters that every request took `route`.
fn assert_route(what: &str, stats: &ServeStats, route: Route) {
    let (taken, other) = match route {
        Route::Inline => (stats.inline_jobs, stats.coalesced_jobs),
        Route::Coalesced => (stats.coalesced_jobs, stats.inline_jobs),
    };
    assert!(taken > 0, "{what}: no job took the {route:?} route");
    assert_eq!(other, 0, "{what}: jobs left the {route:?} route");
}

/// Sequential reference: the harness's own planning path (phase 1 of
/// `run_workload`), one query at a time on one thread.
fn reference(est: &dyn CardEst, truth: &TrueCardService) -> Vec<PlannedQuery> {
    let c = ctx();
    let cost = CostModel::default();
    let fallback = std::sync::OnceLock::new();
    c.wl.queries
        .iter()
        .map(|wq| {
            plan_query_via(
                &c.db,
                wq,
                &|subs| estimate_all(est, &c.db, subs, None),
                truth,
                &cost,
                &fallback,
            )
        })
        .collect()
}

/// Replays the whole workload in concurrent sessions on `route`;
/// returns each session's per-query results plus the server's final
/// self-healing stats (the route already asserted).
fn concurrent_replay(
    est: Arc<dyn CardEst>,
    truth: Arc<TrueCardService>,
    route: Route,
) -> (Vec<Vec<PlannedQuery>>, ServeStats) {
    let c = ctx();
    let (sessions, idle) = match route {
        Route::Inline => (SESSIONS.min(cores()), 0),
        Route::Coalesced => (SESSIONS, cores()),
    };
    let server = Arc::new(Server::start(
        Arc::clone(&c.db),
        truth,
        est,
        CostModel::default(),
        ServeConfig {
            max_sessions: sessions + idle,
            ..ServeConfig::default()
        },
    ));
    let _idle: Vec<_> = (0..idle)
        .map(|_| server.session().expect("idle sessions fit the cap"))
        .collect();
    let handles: Vec<_> = (0..sessions)
        .map(|_| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut session = server.session().expect("admission under the cap");
                ctx()
                    .wl
                    .queries
                    .iter()
                    .map(|wq| session.plan(wq).expect("no budget in this test"))
                    .collect::<Vec<PlannedQuery>>()
            })
        })
        .collect();
    let sessions = handles
        .into_iter()
        .map(|h| h.join().expect("session thread completes"))
        .collect();
    let stats = server.stats();
    assert_route("replay", &stats, route);
    (sessions, stats)
}

/// Bit-level comparison of every value-bearing planning field.
fn assert_planned_eq(name: &str, sess: usize, got: &PlannedQuery, want: &PlannedQuery) {
    let q = want.id;
    assert_eq!(got.id, q);
    assert_eq!(got.subplans, want.subplans, "{name} S{sess} Q{q}: subplans");
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.sub_est_cards),
        bits(&want.sub_est_cards),
        "{name} S{sess} Q{q}: sub-plan estimates diverge"
    );
    assert_eq!(
        bits(&got.sub_true_cards),
        bits(&want.sub_true_cards),
        "{name} S{sess} Q{q}: sub-plan truths diverge"
    );
    assert_eq!(
        bits(&got.q_errors),
        bits(&want.q_errors),
        "{name} S{sess} Q{q}: q-errors diverge"
    );
    assert_eq!(
        got.p_error.to_bits(),
        want.p_error.to_bits(),
        "{name} S{sess} Q{q}: p-error diverges"
    );
    assert_eq!(
        got.excluded_qerrors, want.excluded_qerrors,
        "{name} S{sess} Q{q}: excluded q-errors"
    );
    assert_eq!(
        got.clamped_subplans, want.clamped_subplans,
        "{name} S{sess} Q{q}: clamp count"
    );
    assert_eq!(
        got.fallback_subplans, want.fallback_subplans,
        "{name} S{sess} Q{q}: fallback count"
    );
    assert_eq!(
        got.est_failures, want.est_failures,
        "{name} S{sess} Q{q}: fault attribution diverges"
    );
    assert_eq!(
        got.plan.is_ok(),
        want.plan.is_ok(),
        "{name} S{sess} Q{q}: plan viability"
    );
}

/// Every estimator kind, on both routes: concurrent sessions are
/// bit-identical to the sequential harness path.
#[test]
fn concurrent_sessions_bit_identical_for_all_kinds() {
    let c = ctx();
    // One shared truth cache across kinds (truth is estimator-free); the
    // server side gets its own to prove no cross-talk is needed.
    let truth_ref = TrueCardService::new();
    let truth_srv = Arc::new(TrueCardService::new());
    for kind in EstimatorKind::ALL {
        let built = build_estimator(kind, &c.db, &c.bench.stats_train, &c.bench.config.settings);
        let est: Arc<dyn CardEst> = Arc::from(built.est);
        let want = reference(est.as_ref(), &truth_ref);
        for route in [Route::Inline, Route::Coalesced] {
            let name = &format!("{}/{route:?}", kind.name());
            let (sessions, stats) =
                concurrent_replay(Arc::clone(&est), Arc::clone(&truth_srv), route);
            for (s, got) in sessions.iter().enumerate() {
                assert_eq!(got.len(), want.len(), "{name} S{s}: query count");
                for (g, w) in got.iter().zip(&want) {
                    assert_planned_eq(name, s, g, w);
                }
            }
            assert_healthy(name, &stats);
        }
    }
}

/// Fault-free serving: the default-on breaker must be observation only —
/// closed the whole run, nothing shorted, retried, expired, or restarted.
fn assert_healthy(name: &str, stats: &ServeStats) {
    assert_eq!(
        stats.breaker_state,
        Some(cardbench_serve::BreakerState::Closed),
        "{name}: breaker left Closed on a healthy run"
    );
    assert_eq!(stats.breaker.opens, 0, "{name}: breaker opened");
    assert_eq!(stats.breaker.shorted_slots, 0, "{name}: slots shorted");
    assert_eq!(stats.retries, 0, "{name}: slots retried");
    assert_eq!(stats.deadline_expired_slots, 0, "{name}: slots expired");
    assert_eq!(stats.watchdog_restarts, 0, "{name}: a tick was taken over");
}

/// Chaos faults under concurrency, on both routes: value faults and
/// panics injected at a high rate attribute to exactly the same
/// sub-plans with the same typed errors as the sequential path —
/// coalesced batches degrade only the affected requests.
#[test]
fn concurrent_sessions_bit_identical_under_chaos() {
    let c = ctx();
    let mut classes = FaultClass::VALUES.to_vec();
    classes.push(FaultClass::Panic);
    let wrap = |rate_seed: u64| {
        let built = build_estimator(
            EstimatorKind::Postgres,
            &c.db,
            &c.bench.stats_train,
            &c.bench.config.settings,
        );
        ChaosEst::new(
            built.est,
            ChaosConfig {
                seed: rate_seed,
                rate: 0.4,
                classes: classes.clone(),
                ..ChaosConfig::default()
            },
        )
    };
    let truth_ref = TrueCardService::new();
    let want = reference(&wrap(7), &truth_ref);
    // Some fault must actually fire for this test to mean anything.
    assert!(
        want.iter().any(|p| !p.est_failures.is_empty()),
        "chaos rate too low: no faults injected"
    );
    for route in [Route::Inline, Route::Coalesced] {
        let est: Arc<dyn CardEst> = Arc::new(wrap(7));
        let (sessions, _) = concurrent_replay(est, Arc::new(TrueCardService::new()), route);
        for (s, got) in sessions.iter().enumerate() {
            for (g, w) in got.iter().zip(&want) {
                assert_planned_eq(&format!("Chaos/{route:?}"), s, g, w);
            }
        }
    }
}

/// A lone session never touches the queue — its requests tick inline
/// whatever the host's core count — and stays bit-identical to the
/// harness path, exactly like a `sequential: true` server (the load
/// generator's baseline), which is pinned here too.
#[test]
fn lone_session_never_queues_and_matches_sequential_mode() {
    let c = ctx();
    let built = build_estimator(
        EstimatorKind::Mscn,
        &c.db,
        &c.bench.stats_train,
        &c.bench.config.settings,
    );
    let est: Arc<dyn CardEst> = Arc::from(built.est);
    let truth = TrueCardService::new();
    let want = reference(est.as_ref(), &truth);
    for sequential in [false, true] {
        let server = Server::start(
            Arc::clone(&c.db),
            Arc::new(TrueCardService::new()),
            Arc::clone(&est),
            CostModel::default(),
            ServeConfig {
                sequential,
                ..ServeConfig::default()
            },
        );
        let what = &format!("MSCN/sequential={sequential}");
        let mut session = server.session().expect("admission");
        for (got, w) in c.wl.queries.iter().map(|wq| session.plan(wq)).zip(&want) {
            assert_planned_eq(what, 0, &got.expect("no budget in this test"), w);
        }
        assert_route(what, &server.stats(), Route::Inline);
    }
}
