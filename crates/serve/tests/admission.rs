//! Admission control and graceful degradation under load:
//!
//! - past the live-session cap, `session()` answers with a typed
//!   [`ServeError::Overloaded`] — never queues unboundedly;
//! - that cap also bounds the submission queue: with one job in flight
//!   per session, fewer jobs than live sessions are ever queued, even
//!   behind a slow tick;
//! - a panicking estimator inside a coalesced batch degrades only the
//!   affected requests (PR 5's batch→per-call fallback semantics hold
//!   under concurrency);
//! - cross-session dedup merges only identical sub-plans, never two
//!   table orders of one query;
//! - abrupt session teardown mid-flight leaves the service serving
//!   everyone else (no deadlock, no stranded lease).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::time::Duration;

use cardbench_datagen::{stats_catalog, StatsConfig};
use cardbench_engine::{CostModel, Database, TrueCardService};
use cardbench_estimators::bayescard::BayesCard;
use cardbench_estimators::chaos::{ChaosConfig, ChaosEst, FaultClass};
use cardbench_estimators::postgres::PostgresEst;
use cardbench_estimators::CardEst;
use cardbench_harness::EstimateError;
use cardbench_query::{
    connected_subsets, JoinEdge, JoinQuery, Predicate, Region, SubPlanQuery, TableMask,
};
use cardbench_serve::{coalesce_estimate, ServeConfig, Server, TickFault};
use cardbench_workload::{stats_ceb, Workload, WorkloadConfig};

fn db() -> &'static Arc<Database> {
    static D: OnceLock<Arc<Database>> = OnceLock::new();
    D.get_or_init(|| Arc::new(Database::new(stats_catalog(&StatsConfig::tiny(3)))))
}

fn workload() -> &'static Workload {
    static W: OnceLock<Workload> = OnceLock::new();
    W.get_or_init(|| {
        let cfg = WorkloadConfig {
            seed: 5,
            templates: 4,
            queries: 6,
            max_tables: 3,
            max_predicates: 3,
            retries: 10,
            max_subplan_card: 1e6,
        };
        let wl = stats_ceb(db(), &cfg);
        assert!(!wl.queries.is_empty(), "fixture workload must be nonempty");
        wl
    })
}

fn server(cfg: ServeConfig) -> Server {
    let est: Arc<dyn CardEst> = Arc::new(PostgresEst::fit(db()));
    Server::start(
        Arc::clone(db()),
        Arc::new(TrueCardService::new()),
        est,
        CostModel::default(),
        cfg,
    )
}

#[test]
fn session_cap_rejects_with_typed_overloaded() {
    let srv = server(ServeConfig {
        max_sessions: 2,
        ..ServeConfig::default()
    });
    let s1 = srv.session().expect("first session admitted");
    let _s2 = srv.session().expect("second session admitted");
    match srv.session().map(|_| ()) {
        Err(cardbench_serve::ServeError::Overloaded { live, limit }) => {
            assert_eq!((live, limit), (2, 2));
        }
        other => panic!("expected Overloaded, got {other:?}"),
    }
    assert_eq!(srv.live_sessions(), 2);
    // Capacity frees as sessions close.
    drop(s1);
    assert_eq!(srv.live_sessions(), 1);
    let _s3 = srv.session().expect("slot freed by dropped session");
}

/// The queue needs no cap of its own: a session has at most one job in
/// flight and admission caps the live sessions, so while more sessions
/// than cores pile up behind chaos-slowed ticks, fewer jobs than live
/// sessions are ever queued.
#[test]
fn queue_depth_stays_below_live_sessions() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sessions = cores + 2;
    let srv = Arc::new(server(ServeConfig {
        chaos: Some(ChaosConfig {
            seed: 13,
            rate: 1.0,
            classes: vec![TickFault::Slow],
            stall: Duration::from_millis(10),
            ..ChaosConfig::default()
        }),
        ..ServeConfig::default()
    }));
    let wl = workload();
    // Every session is admitted before any plans and stays open until
    // all have planned, so every request takes the coalesced route.
    // Sessions replay the workload until a queued job has been seen.
    let start = Arc::new(Barrier::new(sessions + 1));
    let done = Arc::new(Barrier::new(sessions));
    let seen_queued = Arc::new(AtomicBool::new(false));
    let handles: Vec<_> = (0..sessions)
        .map(|i| {
            let (srv, start, done, seen) = (
                Arc::clone(&srv),
                Arc::clone(&start),
                Arc::clone(&done),
                Arc::clone(&seen_queued),
            );
            std::thread::spawn(move || {
                let mut session = srv.session().expect("admitted");
                start.wait();
                for _ in 0..10 {
                    for wq in &wl.queries {
                        // Staggered arrivals land while a tick stalls,
                        // after its leader's gather window closed.
                        std::thread::sleep(Duration::from_millis(2 * i as u64));
                        let planned = session.plan(wq).expect("service live");
                        assert!(planned.est_failures.is_empty());
                    }
                    if seen.load(Ordering::Acquire) {
                        break;
                    }
                }
                done.wait();
            })
        })
        .collect();
    start.wait();
    while !handles.iter().all(|h| h.is_finished()) {
        let stats = srv.stats();
        assert!(
            stats.queue_depth == 0 || stats.queue_depth < stats.live_sessions,
            "{} jobs queued with {} live sessions",
            stats.queue_depth,
            stats.live_sessions
        );
        if stats.queue_depth > 0 {
            seen_queued.store(true, Ordering::Release);
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    for h in handles {
        h.join().expect("session threads finish");
    }
    assert!(
        seen_queued.load(Ordering::Acquire),
        "no job ever queued behind a slow tick"
    );
    let stats = srv.stats();
    assert!(
        stats.coalesced_jobs > 0,
        "no request took the coalesced route"
    );
    assert_eq!(stats.inline_jobs, 0, "a request ticked inline");
}

/// A panic injected into one job of a coalesced batch must fault exactly
/// that job's affected sub-plan and leave every other slot — in both
/// jobs — with its clean value.
#[test]
fn coalesced_panic_degrades_only_affected_requests() {
    let wl = workload();
    let subs_of = |i: usize| -> Vec<SubPlanQuery> {
        let q = &wl.queries[i].query;
        connected_subsets(q)
            .iter()
            .map(|&m| SubPlanQuery::project(q, m))
            .collect()
    };
    let job_a = subs_of(0);
    let job_b = subs_of(1);
    // Find a chaos seed whose panic hits job A but not job B.
    let inner = || -> Box<dyn CardEst> { Box::new(PostgresEst::fit(db())) };
    let clean = PostgresEst::fit(db());
    let (est, faulted_a) = (0..200u64)
        .find_map(|seed| {
            let est = ChaosEst::new(
                inner(),
                ChaosConfig {
                    seed,
                    rate: 0.25,
                    classes: vec![FaultClass::Panic],
                    ..ChaosConfig::default()
                },
            );
            let hit_a: Vec<usize> = job_a
                .iter()
                .enumerate()
                .filter(|(_, s)| est.fault_for(&s.query).is_some())
                .map(|(i, _)| i)
                .collect();
            let hit_b = job_b.iter().any(|s| est.fault_for(&s.query).is_some());
            (!hit_a.is_empty() && !hit_b).then_some((est, hit_a))
        })
        .expect("some seed faults job A only");

    let out = coalesce_estimate(&est, db(), &[&job_a, &job_b], None);
    assert!(out.fell_back, "a mid-batch panic must fall back per job");
    assert_eq!(out.results.len(), 2);
    // Job A: exactly the chaos-chosen sub-plans are typed panics; the
    // rest carry the clean estimator's bit-exact values.
    for (i, (outcome, _)) in out.results[0].iter().enumerate() {
        if faulted_a.contains(&i) {
            assert!(
                matches!(outcome, Err(EstimateError::Panicked { .. })),
                "slot {i} of job A should be a typed panic, got {outcome:?}"
            );
        } else {
            let want = clean.estimate(db(), &job_a[i]);
            assert_eq!(
                outcome.as_ref().expect("clean slot").to_bits(),
                want.to_bits()
            );
        }
    }
    // Job B: completely untouched by its neighbor's fault.
    for (i, (outcome, _)) in out.results[1].iter().enumerate() {
        let want = clean.estimate(db(), &job_b[i]);
        assert_eq!(
            outcome.as_ref().expect("job B stays clean").to_bits(),
            want.to_bits(),
            "job B slot {i} perturbed by a sibling job's panic"
        );
    }
}

/// Cross-session dedup never merges two orders of the same tables: the
/// order-free `canonical_hash` is equal for `[users, posts]` and
/// `[posts, users]`, but BayesCard roots its join tree at the first
/// table, so each order has an answer of its own and each job must get
/// it.
#[test]
fn coalesced_dedup_keeps_each_table_order() {
    let est = BayesCard::fit(db(), 16);
    for predicates in [vec![], vec![Predicate::new(0, "Reputation", Region::ge(5))]] {
        let users_first = JoinQuery {
            tables: vec!["users".into(), "posts".into()],
            joins: vec![JoinEdge::new(0, "Id", 1, "OwnerUserId")],
            predicates: predicates.clone(),
        };
        let posts_first = JoinQuery {
            tables: vec!["posts".into(), "users".into()],
            joins: vec![JoinEdge::new(1, "Id", 0, "OwnerUserId")],
            predicates: predicates
                .iter()
                .map(|p| Predicate {
                    table: 1,
                    ..p.clone()
                })
                .collect(),
        };
        assert_eq!(users_first.canonical_hash(), posts_first.canonical_hash());
        let jobs =
            [users_first, posts_first].map(|q| vec![SubPlanQuery::project(&q, TableMask::full(2))]);
        let out = coalesce_estimate(&est, db(), &[&jobs[0], &jobs[1]], None);
        assert!(!out.fell_back);
        for (job, result) in jobs.iter().zip(&out.results) {
            let got = result[0].0.as_ref().expect("a clean slot");
            let alone = est.estimate(db(), &job[0]);
            assert_eq!(
                got.to_bits(),
                alone.to_bits(),
                "{:?}: {got} vs {alone} alone",
                job[0].query.tables
            );
        }
    }
}

/// Abrupt session teardown must not wedge the service: sessions that
/// vanish (threads dropping their session whenever) leave the server
/// fully usable for the next client.
#[test]
fn abrupt_session_teardown_leaves_service_live() {
    let srv = Arc::new(server(ServeConfig {
        max_sessions: 8,
        ..ServeConfig::default()
    }));
    let wl = workload();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            let srv = Arc::clone(&srv);
            std::thread::spawn(move || {
                let mut session = srv.session().expect("admitted");
                // Each session plans a prefix then drops without any
                // orderly goodbye (the thread just ends).
                for wq in wl.queries.iter().take(1 + i % wl.queries.len()) {
                    let _ = session.plan(wq);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("session threads finish (no deadlock)");
    }
    assert_eq!(srv.live_sessions(), 0);
    // The service still serves: a fresh session completes a query.
    let mut session = srv.session().expect("post-churn admission");
    let planned = session.plan(&wl.queries[0]).expect("service still live");
    assert!(planned.plan.is_ok());
    assert!(planned.est_failures.is_empty());
}
