//! The self-healing serving contract, end to end:
//!
//! - a tick panic on the coalesced route degrades its queries typed,
//!   and later serving is bit-identical to a clean sequential
//!   reference;
//! - a wedged tick is taken over by a queued session, `/healthz` fails
//!   while it is stale, and both sessions' answers are bit-identical;
//! - under random tick panics and a teardown mid-run, every request
//!   answers typed within a bounded time;
//! - a fault storm opens the circuit breaker, after which requests
//!   *short* to the fallback (typed `Shorted`, no doomed call paid)
//!   instead of timing out one by one;
//! - dropping the `Server` with live sessions mid-flight never
//!   deadlocks and answers every subsequent request with a typed
//!   `ShuttingDown`;
//! - expired deadlines are typed fast-fails at preflight and per slot
//!   in the queue — never a consumed estimator call;
//! - with takeovers disabled (`heartbeat_stale_after` zero) a blocked
//!   tick never counts as wedged: `/healthz` stays healthy and nothing
//!   takes it over;
//! - an injected tick panic on the inline route degrades typed on the
//!   session's own thread and takes nothing over.
//!
//! A lone session ticks inline. Tests of the coalesced route hold
//! `cores()` idle sessions open so that live sessions exceed the cores
//! and every request is queued, and they assert the route by the
//! server's job counters — nothing here depends on the host's core
//! count or on timing.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::time::{Duration, Instant};

use cardbench_datagen::{stats_catalog, StatsConfig};
use cardbench_engine::{CostModel, Database, TrueCardService};
use cardbench_estimators::chaos::ChaosConfig;
use cardbench_estimators::postgres::PostgresEst;
use cardbench_estimators::CardEst;
use cardbench_harness::{estimate_all, plan_query_via, PlannedQuery};
use cardbench_query::SubPlanQuery;
use cardbench_serve::{
    BreakerConfig, BreakerState, ServeConfig, ServeError, Server, Session, TickFault,
};
use cardbench_workload::{stats_ceb, Workload, WorkloadConfig, WorkloadQuery};

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

/// The server's routing threshold: while live sessions ≤ this, every
/// request runs its tick inline.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn server_with(est: Arc<dyn CardEst>, cfg: ServeConfig) -> Server {
    Server::start(
        Arc::clone(db()),
        Arc::new(TrueCardService::new()),
        est,
        CostModel::default(),
        ServeConfig {
            max_sessions: cfg.max_sessions.max(cores() + 1),
            ..cfg
        },
    )
}

/// Holds `cores()` idle sessions open: with any session planning beside
/// them, live sessions exceed the cores and every request goes to the
/// coalescer.
fn force_coalesced(srv: &Server) -> Vec<Session> {
    (0..cores())
        .map(|_| srv.session().expect("idle sessions fit the cap"))
        .collect()
}

/// Asserts from the job counters that every request took one route.
fn assert_route(srv: &Server, coalesced: bool) {
    let stats = srv.stats();
    let (taken, other) = if coalesced {
        (stats.coalesced_jobs, stats.inline_jobs)
    } else {
        (stats.inline_jobs, stats.coalesced_jobs)
    };
    assert!(taken > 0, "no job took the expected route");
    assert_eq!(other, 0, "jobs left the expected route");
}

fn server(cfg: ServeConfig) -> Server {
    server_with(Arc::new(PostgresEst::fit(db())), cfg)
}

/// The clean sequential reference for one query: the harness's own
/// planning path with an un-faulted PostgreSQL estimator.
fn reference(wq: &WorkloadQuery) -> PlannedQuery {
    let est = PostgresEst::fit(db());
    let truth = TrueCardService::new();
    let cost = CostModel::default();
    let fallback = OnceLock::new();
    plan_query_via(
        db(),
        wq,
        &|subs| estimate_all(&est, db(), subs, None),
        &truth,
        &cost,
        &fallback,
    )
}

fn assert_bits_eq(got: &PlannedQuery, want: &PlannedQuery, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&got.sub_est_cards),
        bits(&want.sub_est_cards),
        "{what}: sub-plan estimates diverge"
    );
    assert_eq!(
        bits(&got.sub_true_cards),
        bits(&want.sub_true_cards),
        "{what}: sub-plan truths diverge"
    );
    assert_eq!(
        got.plan.is_ok(),
        want.plan.is_ok(),
        "{what}: plan viability"
    );
}

/// Chaos panics two coalesced ticks; both affected queries must degrade
/// with *typed* panic slots (never hang, never silently wrong), and
/// once the panic budget is spent serving must return to clean
/// bit-identical answers.
#[test]
fn coalesced_tick_panic_degrades_typed_and_recovers_bit_identical() {
    let wl = workload();
    let srv = server(ServeConfig {
        chaos: Some(ChaosConfig {
            seed: 1,
            rate: 1.0,
            classes: vec![TickFault::Panic],
            max_panics: Some(2),
            ..ChaosConfig::default()
        }),
        ..ServeConfig::default()
    });
    let _idle = force_coalesced(&srv);
    let mut session = srv.session().expect("admitted");
    let wq = &wl.queries[0];

    // Plans 1–2 land on panicking ticks: every slot is a typed hard
    // failure and the whole query degrades to the fallback.
    for round in 0..2 {
        let planned = session.plan(wq).expect("degrades, never errors");
        assert_eq!(
            planned.fallback_subplans, planned.subplans as u64,
            "round {round}: a tick panic degrades every slot"
        );
        assert!(
            planned
                .est_failures
                .iter()
                .all(|f| f.error.kind() == "panicked"),
            "round {round}: crash slots must be typed panics, got {:?}",
            planned.est_failures
        );
    }

    // Panic budget spent: the next tick serves cleanly and the answers
    // are bit-identical to the sequential reference.
    let planned = session.plan(wq).expect("post-panic serving is clean");
    assert!(
        planned.est_failures.is_empty(),
        "post-panic query must be fault-free, got {:?}",
        planned.est_failures
    );
    assert_bits_eq(&planned, &reference(wq), "post-panic");

    assert_route(&srv, true);
    let stats = srv.stats();
    assert_eq!(stats.chaos_panics, 2, "exactly the budgeted panics fired");
    // The service is healthy again: no tick running, nothing queued.
    assert_eq!((stats.tick_age, stats.queue_depth), (None, 0));
    let probes = srv.probes();
    assert_eq!((probes.healthy)(), Ok(()));
    assert_eq!((probes.ready)(), Ok(()));
}

/// A sustained fault storm must open the breaker, after which slots are
/// answered `Shorted` without paying the storm's per-call stall, the
/// degraded values stay bit-identical to the clean fallback, and
/// `/readyz` reports the open breaker — on both routes.
#[test]
fn storm_opens_breaker_and_shorts_to_fallback() {
    for coalesced in [false, true] {
        storm_on_route(coalesced);
    }
}

fn storm_on_route(coalesced: bool) {
    let wl = workload();
    let srv = server(ServeConfig {
        chaos: Some(ChaosConfig {
            seed: 7,
            rate: 1.0,
            classes: vec![TickFault::Storm],
            stall: Duration::from_millis(5),
            ..ChaosConfig::default()
        }),
        breaker: Some(BreakerConfig {
            window: 8,
            open_threshold: 0.5,
            min_samples: 4,
            // No probes during this test: once open, stays open.
            cooldown: Duration::from_secs(600),
        }),
        ..ServeConfig::default()
    });
    let _idle = if coalesced {
        force_coalesced(&srv)
    } else {
        Vec::new()
    };
    let mut session = srv.session().expect("admitted");
    let wq = &wl.queries[0];

    // Storm ticks hard-fail every admitted slot; within a few queries
    // the rolling window trips the breaker.
    let mut opened = false;
    for _ in 0..20 {
        let planned = session.plan(wq).expect("storm degrades, never errors");
        assert_eq!(planned.fallback_subplans, planned.subplans as u64);
        if srv.stats().breaker.opens >= 1 {
            opened = true;
            break;
        }
    }
    assert!(opened, "a total storm must trip the breaker");
    assert_eq!(srv.stats().breaker_state, Some(BreakerState::Open));

    // With the breaker open, slots short: typed `Shorted`, no storm
    // stall paid, values bit-identical to the clean fallback (which is
    // this server's PostgreSQL estimator).
    let planned = session.plan(wq).expect("shorted, not failed");
    assert_eq!(planned.fallback_subplans, planned.subplans as u64);
    assert!(
        planned
            .est_failures
            .iter()
            .all(|f| f.error.kind() == "shorted"),
        "open-breaker slots must be typed shorts, got {:?}",
        planned.est_failures
    );
    assert_bits_eq(&planned, &reference(wq), "breaker-shorted");

    assert_route(&srv, coalesced);
    let stats = srv.stats();
    assert!(stats.breaker.shorted_slots >= planned.subplans as u64);
    // Not ready while the breaker is open — but still healthy (no tick
    // is wedged; shorting *is* the service working).
    let probes = srv.probes();
    assert_eq!((probes.healthy)(), Ok(()));
    assert!((probes.ready)().is_err(), "open breaker must fail /readyz");
}

/// Dropping the `Server` while sessions are mid-flight must never hang:
/// in-flight queries either complete (possibly degraded with typed
/// pipeline-unavailable slots) or are rejected `ShuttingDown`; every
/// request after teardown is a typed `ShuttingDown`.
#[test]
fn server_drop_with_live_sessions_is_deadlock_free_and_typed() {
    let wl = workload();
    let srv = server(ServeConfig::default());
    let mut session = srv.session().expect("admitted");

    let dropper = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        drop(srv);
    });

    // Keep planning through the teardown; every outcome must be typed.
    let giveup = Instant::now() + Duration::from_secs(30);
    let mut saw_shutdown = false;
    while Instant::now() < giveup {
        match session.plan(&wl.queries[0]) {
            Ok(planned) => {
                for f in &planned.est_failures {
                    assert_eq!(
                        f.error.kind(),
                        "panicked",
                        "teardown slots must be typed pipeline failures"
                    );
                }
            }
            Err(ServeError::ShuttingDown) => {
                saw_shutdown = true;
                break;
            }
            Err(other) => panic!("teardown must answer ShuttingDown, got {other:?}"),
        }
    }
    dropper.join().expect("dropper thread finishes");
    assert!(saw_shutdown, "post-teardown requests must be rejected");
    // And it stays that way: teardown is terminal.
    assert!(matches!(
        session.plan(&wl.queries[0]),
        Err(ServeError::ShuttingDown)
    ));
}

/// A deadline that has already passed is rejected at preflight — typed,
/// instantly, without consuming any estimator slot.
#[test]
fn expired_deadline_rejects_at_preflight() {
    let wl = workload();
    let srv = server(ServeConfig::default());
    let mut session = srv.session().expect("admitted");
    let past = Instant::now() - Duration::from_millis(1);
    match session.plan_with_deadline(&wl.queries[0], past) {
        Err(ServeError::DeadlineExceeded { late }) => {
            assert!(late >= Duration::from_millis(1));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(srv.stats().breaker.observed_slots, 0, "no estimator call");
}

/// A deadline that expires while the job is queued (here: its tick is
/// chaos-slowed) fast-fails each slot with a typed `DeadlineExceeded` —
/// the doomed estimate is never run — and the query still completes via
/// the fallback.
#[test]
fn queue_expired_slots_fail_fast_and_typed() {
    let wl = workload();
    let srv = server(ServeConfig {
        chaos: Some(ChaosConfig {
            seed: 11,
            rate: 1.0,
            classes: vec![TickFault::Slow],
            stall: Duration::from_millis(60),
            ..ChaosConfig::default()
        }),
        ..ServeConfig::default()
    });
    let _idle = force_coalesced(&srv);
    let mut session = srv.session().expect("admitted");
    let wq = &wl.queries[0];
    let planned = session
        .plan_with_deadline(wq, Instant::now() + Duration::from_millis(5))
        .expect("queue expiry degrades, never errors");
    assert_eq!(planned.fallback_subplans, planned.subplans as u64);
    assert!(
        planned
            .est_failures
            .iter()
            .all(|f| f.error.kind() == "deadline_exceeded"),
        "queue-expired slots must be typed, got {:?}",
        planned.est_failures
    );
    assert!(
        srv.stats().deadline_expired_slots > 0,
        "expiry must be counted"
    );
    assert_route(&srv, true);
}

/// A tick panic on the inline route is what a coalesced tick panic is
/// to its gathered jobs — every slot of the request a typed `panicked`,
/// the query degraded to the fallback — caught on the session's own
/// thread: the next request is served cleanly, bit-identical to the
/// reference, and a later coalesced one too, with no takeover.
#[test]
fn inline_tick_panic_degrades_typed_without_takeover() {
    let wl = workload();
    let srv = server(ServeConfig {
        chaos: Some(ChaosConfig {
            seed: 1,
            rate: 1.0,
            classes: vec![TickFault::Panic],
            max_panics: Some(1),
            ..ChaosConfig::default()
        }),
        ..ServeConfig::default()
    });
    let mut session = srv.session().expect("admitted");
    let wq = &wl.queries[0];
    let planned = session.plan(wq).expect("degrades, never errors");
    assert_eq!(planned.fallback_subplans, planned.subplans as u64);
    assert!(
        planned
            .est_failures
            .iter()
            .all(|f| f.error.kind() == "panicked"),
        "inline panic slots must be typed panics, got {:?}",
        planned.est_failures
    );
    let planned = session.plan(wq).expect("clean after the panic budget");
    assert!(planned.est_failures.is_empty());
    assert_bits_eq(&planned, &reference(wq), "post-panic");

    assert_route(&srv, false);
    assert_eq!(srv.stats().chaos_panics, 1);

    // The coalesced route is unaffected: this request leads its own
    // tick.
    let _idle = force_coalesced(&srv);
    let planned = session.plan(wq).expect("the coalesced route serves");
    assert!(planned.est_failures.is_empty());
    let stats = srv.stats();
    assert!(stats.coalesced_jobs > 0, "the request was not queued");
    assert_eq!(
        stats.watchdog_restarts, 0,
        "an inline panic takes nothing over"
    );
}

/// PostgreSQL whose first `estimate_batch` reports that it entered and
/// then blocks until released: a wedged estimator call.
struct GatedEst {
    inner: PostgresEst,
    gate: Mutex<Option<(Sender<()>, Receiver<()>)>>,
}

impl CardEst for GatedEst {
    fn name(&self) -> &'static str {
        "gated-postgres"
    }
    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.inner.estimate(db, sub)
    }
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        let gate = self.gate.lock().expect("gate lock").take();
        if let Some((entered, release)) = gate {
            let _ = entered.send(());
            let _ = release.recv();
        }
        self.inner.estimate_batch(db, subs)
    }
}

/// One session planning `wq` on its own thread; the answer comes back
/// on the returned channel.
fn plan_on_thread(srv: &Arc<Server>, wq: &WorkloadQuery) -> Receiver<PlannedQuery> {
    let (tx, rx) = mpsc::channel();
    let (srv, wq) = (Arc::clone(srv), wq.clone());
    std::thread::spawn(move || {
        let mut session = srv.session().expect("admitted");
        drop(srv);
        let _ = tx.send(session.plan(&wq).expect("plans"));
    });
    rx
}

/// A coalesced tick wedged in the estimator: `/healthz` fails once it
/// is stale, a session whose job is queued behind it takes the lease
/// over and is answered, the service is healthy again, and the wedged
/// leader's own answer arrives once the estimator is released — both
/// bit-identical to the reference, nothing hung.
#[test]
fn wedged_tick_is_taken_over_by_a_queued_session() {
    let wl = workload();
    let wq = &wl.queries[0];
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let est: Arc<dyn CardEst> = Arc::new(GatedEst {
        inner: PostgresEst::fit(db()),
        gate: Mutex::new(Some((entered_tx, release_rx))),
    });
    let stale = Duration::from_millis(50);
    let srv = Arc::new(server_with(
        est,
        ServeConfig {
            heartbeat_stale_after: stale,
            breaker: None,
            ..ServeConfig::default()
        },
    ));
    let _idle = force_coalesced(&srv);
    let probes = srv.probes();
    let limit = Duration::from_secs(30);

    let wedged = plan_on_thread(&srv, wq);
    entered
        .recv_timeout(limit)
        .expect("the first tick reached the estimator");
    std::thread::sleep(2 * stale);
    assert!(
        (probes.healthy)().is_err_and(|e| e.contains("wedged")),
        "a stale tick must fail /healthz"
    );

    let queued = plan_on_thread(&srv, wq);
    let planned = queued.recv_timeout(limit).expect("the takeover answered");
    assert_bits_eq(&planned, &reference(wq), "taken over");
    assert_eq!(srv.stats().watchdog_restarts, 1);
    assert_eq!((probes.healthy)(), Ok(()), "healthy after the takeover");

    release.send(()).expect("the wedged tick waits");
    let planned = wedged
        .recv_timeout(limit)
        .expect("the wedged leader answered");
    assert_bits_eq(&planned, &reference(wq), "wedged leader");
    assert_route(&srv, true);
    let stats = srv.stats();
    assert_eq!((stats.watchdog_restarts, stats.tick_age), (1, None));
}

/// With takeovers disabled (a zero `heartbeat_stale_after`) a tick
/// blocked in the estimator is never wedged: `/healthz` stays healthy,
/// the session queued behind it waits instead of taking it over, and
/// both answer bit-identical once the estimator is released.
#[test]
fn zero_stale_bound_never_calls_a_tick_wedged() {
    let wl = workload();
    let wq = &wl.queries[0];
    let (entered_tx, entered) = mpsc::channel();
    let (release, release_rx) = mpsc::channel();
    let est: Arc<dyn CardEst> = Arc::new(GatedEst {
        inner: PostgresEst::fit(db()),
        gate: Mutex::new(Some((entered_tx, release_rx))),
    });
    let srv = Arc::new(server_with(
        est,
        ServeConfig {
            heartbeat_stale_after: Duration::ZERO,
            breaker: None,
            ..ServeConfig::default()
        },
    ));
    let _idle = force_coalesced(&srv);
    let probes = srv.probes();
    let limit = Duration::from_secs(30);

    let blocked = plan_on_thread(&srv, wq);
    entered
        .recv_timeout(limit)
        .expect("the first tick reached the estimator");
    let queued = plan_on_thread(&srv, wq);
    std::thread::sleep(Duration::from_millis(50));
    assert!(srv.stats().tick_age.is_some(), "the tick is still running");
    assert_eq!((probes.healthy)(), Ok(()), "a zero bound wedges nothing");
    assert!(queued.try_recv().is_err(), "the queued session waits");
    assert_eq!(srv.stats().watchdog_restarts, 0);

    release.send(()).expect("the blocked tick waits");
    for (rx, what) in [(blocked, "blocked leader"), (queued, "queued")] {
        let planned = rx.recv_timeout(limit).expect("answered after release");
        assert_bits_eq(&planned, &reference(wq), what);
    }
    assert_route(&srv, true);
    assert_eq!(srv.stats().watchdog_restarts, 0, "nothing was taken over");
}

/// More sessions than cores under random coalesced tick panics, torn
/// down mid-run: every request answers typed — planned, possibly with
/// typed `panicked` slots, or `ShuttingDown` — within a bounded time.
#[test]
fn tick_panics_and_teardown_answer_every_request_typed() {
    let wl = workload();
    let sessions = cores() + 2;
    let srv = Arc::new(server(ServeConfig {
        chaos: Some(ChaosConfig {
            seed: 29,
            rate: 0.2,
            classes: vec![TickFault::Panic],
            ..ChaosConfig::default()
        }),
        ..ServeConfig::default()
    }));
    let opened = Arc::new(Barrier::new(sessions + 1));
    let bound = Duration::from_secs(10);
    let (done, finished) = mpsc::channel();
    for s in 0..sessions {
        let (srv, opened, done) = (Arc::clone(&srv), Arc::clone(&opened), done.clone());
        std::thread::spawn(move || {
            let mut session = srv.session().expect("admitted");
            drop(srv);
            opened.wait();
            let mut planned = 0u64;
            for k in s.. {
                let t0 = Instant::now();
                let outcome = session.plan(&wl.queries[k % wl.queries.len()]);
                assert!(t0.elapsed() < bound, "a request took {:?}", t0.elapsed());
                match outcome {
                    Ok(p) => {
                        assert!(
                            p.est_failures.iter().all(|f| f.error.kind() == "panicked"),
                            "only typed panics degrade, got {:?}",
                            p.est_failures
                        );
                        planned += 1;
                    }
                    Err(ServeError::ShuttingDown) => break,
                    Err(other) => panic!("expected ShuttingDown, got {other:?}"),
                }
            }
            let _ = done.send(planned);
        });
    }
    drop(done);
    opened.wait();
    std::thread::sleep(Duration::from_millis(100));
    let stats = srv.stats();
    Arc::into_inner(srv)
        .expect("sessions hold no server handle")
        .shutdown();
    let mut planned = 0;
    for _ in 0..sessions {
        planned += finished
            .recv_timeout(Duration::from_secs(30))
            .expect("every session ends with ShuttingDown");
    }
    assert!(planned > 0, "sessions planned before the teardown");
    assert!(
        stats.coalesced_jobs > 0,
        "the coalesced route was exercised"
    );
}
