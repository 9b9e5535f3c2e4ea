//! Estimation-as-a-service: a long-running, thread-per-session serving
//! layer over the benchmark's planning pipeline, with **cross-session
//! batch coalescing** as its core performance mechanism and a
//! **self-healing layer** — circuit breaker, deadline propagation,
//! drainer watchdog — that keeps it answering under the failure modes
//! the paper shows learned estimators actually have.
//!
//! The batch harness measures inference one query stream at a time; a
//! production estimator serves many concurrent streams against one
//! database. The two amortization layers the repo already has —
//! per-query `estimate_batch` (one forward pass over a query's whole
//! sub-plan space) and the shared engine memos (filtered scans,
//! key-weight aggregates, true-cardinality cache, topology cache) —
//! both compose naturally across sessions, and this crate adds the
//! third: concurrent sessions' sub-plan batches are drained from a
//! bounded submission queue into **one** `CardEst::estimate_batch` call
//! per drain tick, with duplicate sub-plans across sessions estimated
//! once. Per-request fault attribution is preserved — each submitted
//! slot gets its own `Result<f64, EstimateError>` routed back over the
//! session's reply channel, and a poisoned combined batch degrades only
//! to the per-job guarded path, never to a whole-tick failure.
//!
//! Correctness rests on the batch contract the estimator crate already
//! enforces: `estimate_batch` values are per-slot bit-identical to
//! sequential `estimate` regardless of batch composition (per-call RNG
//! is keyed by the sub-plan's canonical hash). Coalescing and
//! deduplication therefore never change any session's numbers — the
//! differential tests pin this for every estimator kind.
//!
//! Admission control keeps the service loss-tolerant instead of
//! unboundedly queued: a hard cap on live sessions (typed
//! [`ServeError::Overloaded`] rejection) plus a per-session sub-plan
//! budget (typed [`ServeError::BudgetExhausted`]), reusing the fault
//! taxonomy's philosophy that overload is a *typed response*, not a
//! hang. The submission queue itself is bounded, so a slow estimator
//! back-pressures sessions rather than growing a queue.
//!
//! # Self-healing
//!
//! - **Circuit breaker** ([`breaker`]): a rolling window of per-slot
//!   hard-fault rates in front of the coalesced estimate. Open → every
//!   slot routes straight to the shared PostgreSQL fallback with a typed
//!   [`EstimateError::Shorted`] ("breaker-shorted", paid no doomed-call
//!   latency), distinct from `Panicked`/`TimedOut` ("failed, then
//!   degraded", paid it all). Half-open probes close it again.
//! - **Deadline propagation**: [`Session::plan_with_deadline`] carries a
//!   per-request deadline through queue wait ([`EstimateError::DeadlineExceeded`]
//!   fast-fail for jobs that expired while queued — no estimator slot
//!   consumed), coalesce gather, and the per-call estimate budget
//!   (`deadline_budget` tightens the timeout for lone jobs). Transient
//!   (`TimedOut`) faults get a bounded retry with decorrelated-jitter
//!   backoff while deadline budget remains.
//! - **Watchdog** ([`watchdog`]): heartbeat + `JoinHandle` probing
//!   detects a dead or wedged drainer and restarts it over the intact
//!   submission queue ([`coalesce::JobQueue`] lives in `Shared`, not in
//!   the dead thread). In-flight jobs at crash time degrade per-job with
//!   typed errors; queued jobs are served by the successor.
//! - **ChaosServe** ([`chaos`]): deterministic service-level fault
//!   injection (drainer panics, slow ticks, estimator fault storms) for
//!   the chaos bench and the self-healing tests.
//!
//! With chaos disabled and no deadlines, all of this is observation
//! only: the breaker never opens, retries never fire, and serving stays
//! bit-identical to the pre-self-healing service — the differential
//! tests pin that too.
//!
//! Observability: sessions open `run` > `session` spans on their own
//! thread, drain ticks open `coalesced_batch` spans on the drainer
//! thread, and the service maintains `cardbench_serve_*` counters and
//! latency histograms (p50/p95/p99 via `Histogram::percentiles`). A
//! live Prometheus text snapshot plus `/healthz` (drainer heartbeat
//! fresh) and `/readyz` (under session cap, breaker not open) endpoints
//! are served on demand by [`prom_http::PromServer`].

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod breaker;
pub mod chaos;
pub mod coalesce;
pub mod loadgen;
pub mod prom_http;
pub mod watchdog;

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cardbench_engine::{CostModel, Database, TrueCardService};
use cardbench_estimators::postgres::PostgresEst;
use cardbench_estimators::CardEst;
use cardbench_feedback::{FeedbackEst, FeedbackStore};
use cardbench_harness::{
    deadline_budget, estimate_all, observe_query, plan_query_via, record_feedback_metrics,
    EstimateError, PlannedQuery,
};
use cardbench_obs::{counter_add, gauge_set, observe_secs};
use cardbench_query::{BoundQuery, SubPlanQuery};
use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};
use cardbench_workload::WorkloadQuery;

use breaker::{Admission, Breaker};
use chaos::ChaosServe;
use coalesce::EstimateJob;

pub use breaker::{BreakerConfig, BreakerState, BreakerStats};
pub use cardbench_feedback::{FeedbackConfig, FeedbackStats};
pub use chaos::{ChaosServeConfig, TickFault};
pub use coalesce::{coalesce_estimate, CoalesceOutcome};
pub use loadgen::{run_load, LoadConfig, LoadReport};
pub use prom_http::{HealthProbes, PromServer};

/// The typed per-slot message a session synthesizes when the service is
/// torn down (or crashes) under its request: a hard failure, so
/// `plan_query_via` substitutes the PostgreSQL baseline per sub-plan.
const PIPELINE_UNAVAILABLE: &str = "serve: estimation pipeline unavailable";

/// Service tuning knobs. Every bound is a hard limit, not a hint.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum live sessions; the next [`Server::session`] past this is
    /// rejected with [`ServeError::Overloaded`].
    pub max_sessions: usize,
    /// Maximum sub-plan estimates one session may submit over its
    /// lifetime; exceeded → [`ServeError::BudgetExhausted`]. Wholly
    /// degraded queries (no plan, or every slot hard-failed to the
    /// fallback) refund their charge.
    pub session_subplan_budget: u64,
    /// Maximum jobs (one job = one query's sub-plan slice) combined per
    /// drain tick.
    pub coalesce_max: usize,
    /// How long a drain tick may wait for more sessions' jobs once it
    /// holds at least one. The drainer only waits while *more sessions
    /// are live than jobs gathered* — a lone session is always served
    /// immediately, and a full house stops the clock early. This bounded
    /// wait is what lets concurrent replays of a shared workload land in
    /// the same tick and dedup; `Duration::ZERO` disables gathering
    /// (drain-what's-queued only).
    pub coalesce_window: Duration,
    /// Bound of the submission queue. A full queue back-pressures the
    /// submitting session (blocking send), never grows unboundedly.
    pub queue_cap: usize,
    /// Per-estimate wall-clock budget, as in the harness's `RunOptions`.
    /// A request deadline tightens this further for lone jobs (see
    /// `cardbench_harness::deadline_budget`).
    pub estimate_timeout: Option<Duration>,
    /// `true` disables cross-session coalescing: each session estimates
    /// on its own thread exactly like the batch harness. The load
    /// generator's baseline mode.
    pub sequential: bool,
    /// Circuit breaker in front of the estimator; `None` disables it.
    /// Enabled by default — with a healthy estimator it is observation
    /// only (serving stays bit-identical), and with a faulting one it is
    /// the difference between "every request pays the doomed call" and
    /// "requests short to the fallback instantly".
    pub breaker: Option<BreakerConfig>,
    /// Service-level fault injection; `None` (the default) disables it.
    pub chaos: Option<ChaosServeConfig>,
    /// Retries per query for transient (`TimedOut`) sub-plan faults,
    /// attempted only while deadline budget remains. `0` disables.
    pub max_retries: u32,
    /// Decorrelated-jitter backoff floor between retry attempts.
    pub retry_backoff_base: Duration,
    /// Decorrelated-jitter backoff ceiling.
    pub retry_backoff_cap: Duration,
    /// How often the watchdog probes the drainer.
    pub watchdog_interval: Duration,
    /// Heartbeat age past which a *busy* drainer counts as wedged and is
    /// superseded. Must comfortably exceed an honest tick's duration.
    pub heartbeat_stale_after: Duration,
    /// Execution-feedback cache shared by every session: `Some` wraps
    /// the served estimator in a [`FeedbackEst`] over one
    /// [`FeedbackStore`], and each planned query's true sub-plan
    /// cardinalities are observed back into the store. `None` (the
    /// default) leaves the service bit-identical to a feedback-less
    /// build — pinned by the differential tests.
    pub feedback: Option<FeedbackConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_sessions: 64,
            session_subplan_budget: u64::MAX,
            coalesce_max: 64,
            coalesce_window: Duration::from_micros(500),
            queue_cap: 256,
            estimate_timeout: None,
            sequential: false,
            breaker: Some(BreakerConfig::default()),
            chaos: None,
            max_retries: 1,
            retry_backoff_base: Duration::from_micros(500),
            retry_backoff_cap: Duration::from_millis(20),
            watchdog_interval: Duration::from_millis(25),
            heartbeat_stale_after: Duration::from_secs(5),
            feedback: None,
        }
    }
}

/// Typed service rejections. Like the estimator fault taxonomy, overload
/// is an *answer*, not a hang or a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ServeError {
    /// Session admission denied: the live-session cap is reached.
    Overloaded {
        /// Live sessions at rejection time.
        live: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The session spent its sub-plan budget; this query would exceed it.
    BudgetExhausted {
        /// Sub-plans already estimated by this session.
        used: u64,
        /// Sub-plans this query needs.
        requested: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The service is tearing down: no new work is accepted.
    ShuttingDown,
    /// The request's deadline had already passed when it reached the
    /// service; it was rejected before consuming any estimator slot.
    DeadlineExceeded {
        /// How far past the deadline the request arrived.
        late: Duration,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { live, limit } => {
                write!(f, "overloaded: {live} live sessions (limit {limit})")
            }
            ServeError::BudgetExhausted {
                used,
                requested,
                budget,
            } => write!(
                f,
                "session sub-plan budget exhausted: {used} used + {requested} requested > {budget}"
            ),
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::DeadlineExceeded { late } => {
                write!(f, "request deadline already exceeded ({late:?} late)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Delegating adapter so an `Arc<dyn CardEst>` can sit inside the boxed
/// [`FeedbackEst`] wrapper. Inference-side methods forward; the
/// `&mut self` update entry point is unreachable through the shared
/// `Arc` and keeps the trait's no-op default.
struct SharedEst(Arc<dyn CardEst>);

impl CardEst for SharedEst {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.0.estimate(db, sub)
    }
    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        self.0.estimate_batch(db, subs)
    }
    fn batch_leverage(&self) -> bool {
        self.0.batch_leverage()
    }
    fn model_size_bytes(&self) -> usize {
        self.0.model_size_bytes()
    }
    fn is_oracle(&self) -> bool {
        self.0.is_oracle()
    }
    fn supports_update(&self) -> bool {
        false
    }
}

/// State shared by the server, every session, the drainer, and the
/// watchdog. The submission queue lives *here* — not inside a channel
/// owned by the drainer thread — so queued jobs survive a drainer crash
/// and a replacement drainer resumes them.
pub(crate) struct Shared {
    pub(crate) db: Arc<Database>,
    pub(crate) truth: Arc<TrueCardService>,
    pub(crate) est: Arc<dyn CardEst>,
    pub(crate) cost: CostModel,
    pub(crate) cfg: ServeConfig,
    /// Graceful-degradation estimator for hard failures, built at most
    /// once per server and shared by every session (the harness builds
    /// one per run; a server *is* one long run).
    pub(crate) fallback: OnceLock<PostgresEst>,
    live: AtomicUsize,
    /// The bounded submission queue (crash-surviving; see module docs).
    pub(crate) queue: coalesce::JobQueue,
    /// Cross-session execution-feedback store, if enabled. The served
    /// `est` is then already the [`FeedbackEst`] wrapper over it.
    pub(crate) feedback: Option<Arc<FeedbackStore>>,
    /// Circuit breaker for the served estimator, if enabled.
    pub(crate) breaker: Option<Breaker>,
    /// Service-level fault injector, if enabled.
    pub(crate) chaos: Option<ChaosServe>,
    shutting_down: AtomicBool,
    /// Epoch for the heartbeat clock (nanos are relative to this).
    epoch: Instant,
    /// Last drainer heartbeat, nanos since `epoch`.
    heartbeat_ns: AtomicU64,
    /// The drainer is inside a tick (gather + estimate + reply).
    drainer_busy: AtomicBool,
    /// Current drainer generation; a drainer whose generation is stale
    /// has been superseded by the watchdog and must stand down.
    drainer_gen: AtomicU64,
    retries: AtomicU64,
    deadline_expired: AtomicU64,
    watchdog_restarts: AtomicU64,
}

impl Shared {
    pub(crate) fn new(
        db: Arc<Database>,
        truth: Arc<TrueCardService>,
        est: Arc<dyn CardEst>,
        cost: CostModel,
        cfg: ServeConfig,
    ) -> Shared {
        let queue = coalesce::JobQueue::new(cfg.queue_cap.max(1));
        // Feedback wraps the estimator *inside* the service, so both the
        // coalesced drain path and the inline sequential path resolve
        // through the same shared store.
        let (est, feedback) = match cfg.feedback {
            Some(fc) => {
                let store = Arc::new(FeedbackStore::new(fc));
                let wrapped: Arc<dyn CardEst> = Arc::new(FeedbackEst::new(
                    Box::new(SharedEst(est)),
                    Arc::clone(&store),
                    true,
                ));
                (wrapped, Some(store))
            }
            None => (est, None),
        };
        let breaker = cfg.breaker.clone().map(|bc| Breaker::new(bc, est.name()));
        let chaos = cfg.chaos.clone().map(ChaosServe::new);
        Shared {
            db,
            truth,
            est,
            feedback,
            cost,
            cfg,
            fallback: OnceLock::new(),
            live: AtomicUsize::new(0),
            queue,
            breaker,
            chaos,
            shutting_down: AtomicBool::new(false),
            epoch: Instant::now(),
            heartbeat_ns: AtomicU64::new(0),
            drainer_busy: AtomicBool::new(false),
            drainer_gen: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            deadline_expired: AtomicU64::new(0),
            watchdog_restarts: AtomicU64::new(0),
        }
    }

    pub(crate) fn live_sessions(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// Beats the drainer heartbeat: "I am making progress".
    pub(crate) fn beat(&self) {
        self.heartbeat_ns
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Release);
    }

    /// Time since the last heartbeat.
    pub(crate) fn heartbeat_age(&self) -> Duration {
        let now = self.epoch.elapsed().as_nanos() as u64;
        Duration::from_nanos(now.saturating_sub(self.heartbeat_ns.load(Ordering::Acquire)))
    }

    pub(crate) fn set_drainer_busy(&self, busy: bool) {
        self.drainer_busy.store(busy, Ordering::Release);
    }

    /// A busy drainer with a stale heartbeat is wedged (an idle one
    /// beats on every queue poll, so staleness there means death — the
    /// `JoinHandle` probe's territory).
    pub(crate) fn drainer_wedged(&self) -> bool {
        !self.cfg.heartbeat_stale_after.is_zero()
            && self.drainer_busy.load(Ordering::Acquire)
            && self.heartbeat_age() > self.cfg.heartbeat_stale_after
    }

    pub(crate) fn superseded(&self, gen: u64) -> bool {
        self.drainer_gen.load(Ordering::Acquire) != gen
    }

    pub(crate) fn bump_drainer_gen(&self) -> u64 {
        self.drainer_gen.fetch_add(1, Ordering::AcqRel) + 1
    }

    pub(crate) fn is_shutting_down(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Flips the teardown flag; `true` for the first caller only.
    pub(crate) fn begin_shutdown(&self) -> bool {
        !self.shutting_down.swap(true, Ordering::AcqRel)
    }

    pub(crate) fn note_deadline_expired(&self, slots: u64) {
        self.deadline_expired.fetch_add(slots, Ordering::AcqRel);
        counter_add("cardbench_serve_deadline_exceeded_total", &[], slots);
    }

    pub(crate) fn stats_deadline_expired(&self) -> u64 {
        self.deadline_expired.load(Ordering::Acquire)
    }

    pub(crate) fn note_retries(&self, slots: u64) {
        self.retries.fetch_add(slots, Ordering::AcqRel);
        counter_add("cardbench_serve_retries_total", &[], slots);
    }

    pub(crate) fn note_watchdog_restart(&self) {
        self.watchdog_restarts.fetch_add(1, Ordering::AcqRel);
    }
}

/// A point-in-time view of the service's self-healing machinery, from
/// server-local atomics (live regardless of whether obs recording is
/// on). The chaos bench and the self-healing tests assert on this.
#[derive(Debug, Clone)]
pub struct ServeStats {
    /// Sessions currently live.
    pub live_sessions: usize,
    /// Teardown has begun.
    pub shutting_down: bool,
    /// Age of the drainer's last heartbeat.
    pub heartbeat_age: Duration,
    /// Jobs queued and not yet picked up by a tick.
    pub queue_depth: usize,
    /// Times the watchdog replaced the drainer.
    pub watchdog_restarts: u64,
    /// Sub-plan slots re-submitted by transient-fault retries.
    pub retries: u64,
    /// Sub-plan slots fast-failed because their deadline expired in the
    /// queue (plus estimate batches skipped for the same reason).
    pub deadline_expired_slots: u64,
    /// Breaker state, `None` when the breaker is disabled.
    pub breaker_state: Option<BreakerState>,
    /// Breaker counters (zeros when disabled).
    pub breaker: BreakerStats,
    /// Drainer panics injected by ChaosServe so far.
    pub chaos_panics: u32,
    /// Feedback-store counters, `None` when feedback is disabled.
    pub feedback: Option<FeedbackStats>,
}

/// The estimation service: owns the shared engine state, the coalescer
/// drainer, and the watchdog that keeps the drainer alive; hands out
/// [`Session`]s.
pub struct Server {
    shared: Arc<Shared>,
    drainer: watchdog::DrainerCell,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts the service: spawns the drainer thread over the bounded
    /// submission queue and the watchdog that restarts it on death or
    /// wedge. All sessions share `db`, `truth`, and `est` by reference —
    /// the engine memos and the true-cardinality cache warm up across
    /// *users*, not just across queries.
    ///
    /// # Panics
    ///
    /// Panics if either service thread cannot be spawned: a service
    /// that cannot estimate must never start silently degraded.
    pub fn start(
        db: Arc<Database>,
        truth: Arc<TrueCardService>,
        est: Arc<dyn CardEst>,
        cost: CostModel,
        cfg: ServeConfig,
    ) -> Server {
        let shared = Arc::new(Shared::new(db, truth, est, cost, cfg));
        shared.beat();
        let drainer: watchdog::DrainerCell =
            Arc::new(Mutex::new(Some(watchdog::spawn_drainer(&shared, 0))));
        let wd = {
            let shared = Arc::clone(&shared);
            let cell = Arc::clone(&drainer);
            std::thread::Builder::new()
                .name("serve-watchdog".into())
                .spawn(move || watchdog::watchdog_loop(&shared, &cell))
                .expect("serve: failed to spawn the watchdog thread")
        };
        Server {
            shared,
            drainer,
            watchdog: Some(wd),
        }
    }

    /// Opens a session, or rejects with [`ServeError::Overloaded`] when
    /// the live-session cap is reached (or [`ServeError::ShuttingDown`]
    /// during teardown). Open the session on the thread that will use
    /// it: its `run` > `session` spans belong to that thread's timeline.
    pub fn session(&self) -> Result<Session, ServeError> {
        if self.shared.is_shutting_down() {
            return Err(ServeError::ShuttingDown);
        }
        let limit = self.shared.cfg.max_sessions.max(1);
        let admitted = self
            .shared
            .live
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |live| {
                (live < limit).then_some(live + 1)
            });
        match admitted {
            Ok(prev) => {
                gauge_set("cardbench_serve_sessions_active", &[], (prev + 1) as f64);
                let run = cardbench_obs::span_with("run", "run", || "serve-session".to_string());
                let session = cardbench_obs::span("session", "run");
                Ok(Session {
                    shared: Arc::clone(&self.shared),
                    used: 0,
                    _session: session,
                    _run: run,
                })
            }
            Err(live) => {
                counter_add(
                    "cardbench_serve_rejected_total",
                    &[("reason", "overloaded")],
                    1,
                );
                Err(ServeError::Overloaded { live, limit })
            }
        }
    }

    /// Live session count (tests and load reporting).
    pub fn live_sessions(&self) -> usize {
        self.shared.live_sessions()
    }

    /// The served estimator's display name.
    pub fn estimator_name(&self) -> &'static str {
        self.shared.est.name()
    }

    /// Whether the served estimator has real batch leverage (coalescing
    /// can amortize more than queueing costs).
    pub fn batch_leverage(&self) -> bool {
        self.shared.est.batch_leverage()
    }

    /// Self-healing machinery snapshot.
    pub fn stats(&self) -> ServeStats {
        let sh = &self.shared;
        ServeStats {
            live_sessions: sh.live_sessions(),
            shutting_down: sh.is_shutting_down(),
            heartbeat_age: sh.heartbeat_age(),
            queue_depth: sh.queue.len(),
            watchdog_restarts: sh.watchdog_restarts.load(Ordering::Acquire),
            retries: sh.retries.load(Ordering::Acquire),
            deadline_expired_slots: sh.stats_deadline_expired(),
            breaker_state: sh.breaker.as_ref().map(Breaker::state),
            breaker: sh.breaker.as_ref().map(Breaker::stats).unwrap_or_default(),
            chaos_panics: sh.chaos.as_ref().map_or(0, ChaosServe::panics_injected),
            feedback: sh.feedback.as_ref().map(|s| s.stats()),
        }
    }

    /// Liveness/readiness probes for [`PromServer::bind_with_probes`]:
    /// `/healthz` is the drainer heartbeat (fresh unless dead or wedged
    /// past `heartbeat_stale_after`), `/readyz` is "will a new request
    /// be served well" (under the session cap, breaker not open, not
    /// shutting down).
    pub fn probes(&self) -> HealthProbes {
        let live = Arc::clone(&self.shared);
        let ready = Arc::clone(&self.shared);
        HealthProbes {
            healthy: Arc::new(move || {
                if live.is_shutting_down() {
                    return Err("shutting down".to_string());
                }
                let age = live.heartbeat_age();
                if age > live.cfg.heartbeat_stale_after {
                    return Err(format!("drainer heartbeat stale ({age:?})"));
                }
                Ok(())
            }),
            ready: Arc::new(move || {
                if ready.is_shutting_down() {
                    return Err("shutting down".to_string());
                }
                let (sessions, cap) = (ready.live_sessions(), ready.cfg.max_sessions.max(1));
                if sessions >= cap {
                    return Err(format!("at session cap ({sessions}/{cap})"));
                }
                if let Some(b) = &ready.breaker {
                    if b.state() == BreakerState::Open {
                        return Err("circuit breaker open".to_string());
                    }
                }
                Ok(())
            }),
        }
    }

    /// Begins teardown exactly once: flags the service as shutting down
    /// (new [`Session::plan`] calls return [`ServeError::ShuttingDown`]),
    /// closes the queue, and fast-fails every unserved job with typed
    /// per-slot errors so no waiting session ever hangs.
    fn begin_teardown(&self) {
        if !self.shared.begin_shutdown() {
            return;
        }
        for job in self.shared.queue.close() {
            let _ = job.reply.send(
                job.subs
                    .iter()
                    .map(|_| {
                        (
                            Err(EstimateError::Panicked {
                                message: PIPELINE_UNAVAILABLE.to_string(),
                            }),
                            Duration::ZERO,
                        )
                    })
                    .collect(),
            );
        }
    }

    /// Graceful shutdown: begins teardown, then joins the watchdog
    /// (which joins the drainer — the drainer finishes its in-hand tick
    /// and exits at its next pop of the closed queue). Sessions still
    /// live get typed errors, never hangs.
    pub fn shutdown(mut self) {
        self.begin_teardown();
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        let handle = self
            .drainer
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take();
        if let Some(h) = handle {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Same teardown as `shutdown()` but without the joins: dropping
        // must never block on an in-flight tick (tests drop servers with
        // sessions still live; those sessions get typed errors). The
        // detached threads observe the closed queue / shutdown flag and
        // exit on their own.
        self.begin_teardown();
        self.watchdog.take();
    }
}

/// One client session. Thread-affine by design (create and use it on one
/// thread): its spans record on the dropping thread's timeline.
pub struct Session {
    shared: Arc<Shared>,
    used: u64,
    // Declaration order = drop order: close `session` before `run`.
    _session: cardbench_obs::Span,
    _run: cardbench_obs::Span,
}

impl Session {
    /// Plans one workload query through the service with no deadline:
    /// sub-plan estimation routed through the cross-session coalescer
    /// (or inline when the server runs sequential), then injection, plan
    /// choice, and Q-/P-Error — semantically identical to the harness's
    /// phase 1.
    ///
    /// Returns [`ServeError::BudgetExhausted`] without estimating when
    /// the query's sub-plan count would exceed the session budget, and
    /// [`ServeError::ShuttingDown`] once the server begins teardown.
    pub fn plan(&mut self, wq: &WorkloadQuery) -> Result<PlannedQuery, ServeError> {
        self.plan_by(wq, None)
    }

    /// Like [`Session::plan`] but the request carries an end-to-end
    /// `deadline` that propagates through queue wait (expired-in-queue
    /// jobs fast-fail with typed [`EstimateError::DeadlineExceeded`]
    /// slots, consuming no estimator call), coalesce gather, and the
    /// per-call estimate budget. A deadline that has already passed is
    /// rejected up front with [`ServeError::DeadlineExceeded`].
    pub fn plan_with_deadline(
        &mut self,
        wq: &WorkloadQuery,
        deadline: Instant,
    ) -> Result<PlannedQuery, ServeError> {
        self.plan_by(wq, Some(deadline))
    }

    fn plan_by(
        &mut self,
        wq: &WorkloadQuery,
        deadline: Option<Instant>,
    ) -> Result<PlannedQuery, ServeError> {
        let t0 = Instant::now();
        let sh = Arc::clone(&self.shared);
        if sh.is_shutting_down() {
            counter_add(
                "cardbench_serve_rejected_total",
                &[("reason", "shutting_down")],
                1,
            );
            return Err(ServeError::ShuttingDown);
        }
        if let Some(d) = deadline {
            if t0 >= d {
                sh.note_deadline_expired(0);
                counter_add(
                    "cardbench_serve_rejected_total",
                    &[("reason", "deadline")],
                    1,
                );
                return Err(ServeError::DeadlineExceeded {
                    late: t0.duration_since(d),
                });
            }
        }
        // Budget gate: the topology is memoized, so counting the
        // sub-plan space here costs one shard lookup on the warm path
        // and `plan_query_via` reuses the same entry below. Bind errors
        // surface as a typed `PlannedQuery` failure, not a budget hit.
        let requested = match BoundQuery::bind(&wq.query, sh.db.catalog()) {
            Ok(bound) => sh.db.topology(&wq.query, &bound).masks().len() as u64,
            Err(_) => 0,
        };
        let budget = sh.cfg.session_subplan_budget;
        if self.used.saturating_add(requested) > budget {
            counter_add("cardbench_serve_rejected_total", &[("reason", "budget")], 1);
            return Err(ServeError::BudgetExhausted {
                used: self.used,
                requested,
                budget,
            });
        }
        self.used += requested;
        let mode = if sh.cfg.sequential {
            "sequential"
        } else {
            "coalesced"
        };
        // Snapshot before planning: the estimate calls inside
        // `plan_query_via` hit the feedback store (hits/overrides/
        // corrections), and the observation below refreshes it; the
        // folded delta must cover both sides.
        let fb_before = sh.feedback.as_ref().map(|s| s.stats());
        let planned = plan_query_via(
            &sh.db,
            wq,
            &|subs| self.estimate_with_retries(subs, deadline),
            &sh.truth,
            &sh.cost,
            &sh.fallback,
        );
        if let Some(store) = &sh.feedback {
            if let Ok((bound, _)) = &planned.plan {
                let _fb =
                    cardbench_obs::span_with("feedback", "serve", || format!("Q{}", planned.id));
                observe_query(
                    &sh.db,
                    store,
                    &wq.query,
                    bound,
                    &planned.sub_est_cards,
                    &planned.sub_true_cards,
                );
            }
            if let Some(before) = &fb_before {
                record_feedback_metrics(sh.est.name(), before, &store.stats());
            }
        }
        // Refund the budget charge on full-query degradation: the query
        // either produced no plan at all (bind/truth failure) or every
        // sub-plan slot hard-failed to the fallback — the session got
        // nothing from the estimator it is budgeted against, and a
        // transient fault (drainer crash, storm, teardown race) must not
        // permanently eat its quota.
        let wholly_degraded =
            planned.subplans > 0 && planned.fallback_subplans == planned.subplans as u64;
        if planned.plan.is_err() || wholly_degraded {
            self.used = self.used.saturating_sub(requested);
        }
        counter_add("cardbench_serve_queries_total", &[("mode", mode)], 1);
        observe_secs(
            "cardbench_serve_plan_latency_seconds",
            &[("method", sh.est.name())],
            t0.elapsed().as_secs_f64(),
        );
        Ok(planned)
    }

    /// Sub-plans this session has spent of its budget.
    pub fn subplans_used(&self) -> u64 {
        self.used
    }

    /// One estimate pass plus up to `max_retries` bounded re-submissions
    /// of slots that failed *transiently* (`TimedOut`) — other faults
    /// (panics, shorted, deadline) are not retryable. Backoff between
    /// attempts is decorrelated jitter (`sleep = min(cap, uniform(base,
    /// 3·prev))`) from a deterministic per-query stream, and a retry is
    /// attempted only while the request's deadline budget remains (an
    /// undeadlined request always has budget). Retried slots keep their
    /// accumulated latency across attempts.
    fn estimate_with_retries(
        &self,
        subs: &[SubPlanQuery],
        deadline: Option<Instant>,
    ) -> Vec<(Result<f64, EstimateError>, Duration)> {
        let mut out = self.estimate_once(subs, deadline);
        let cfg = &self.shared.cfg;
        if cfg.max_retries == 0 || subs.is_empty() {
            return out;
        }
        let mut prev = cfg.retry_backoff_base;
        for attempt in 1..=cfg.max_retries {
            let timed_out: Vec<usize> = out
                .iter()
                .enumerate()
                .filter(|(_, (r, _))| matches!(r, Err(e) if e.is_transient()))
                .map(|(i, _)| i)
                .collect();
            if timed_out.is_empty() {
                break;
            }
            let now = Instant::now();
            let left = deadline.map(|d| d.saturating_duration_since(now));
            let base = cfg.retry_backoff_base;
            let cap = cfg.retry_backoff_cap.max(base);
            let hi = (prev.saturating_mul(3)).clamp(base, cap);
            let mut rng = StdRng::seed_from_u64(
                subs[timed_out[0]].query.canonical_hash() ^ u64::from(attempt),
            );
            let sleep = base + (hi - base).mul_f64(rng.gen::<f64>());
            // Out of deadline budget (or the backoff alone would blow
            // it): the transient failure stands and degrades normally.
            if left.is_some_and(|l| l <= sleep) {
                break;
            }
            std::thread::sleep(sleep);
            prev = sleep;
            self.shared.note_retries(timed_out.len() as u64);
            let retry_subs: Vec<SubPlanQuery> =
                timed_out.iter().map(|&i| subs[i].clone()).collect();
            let retry_out = self.estimate_once(&retry_subs, deadline);
            for (k, &i) in timed_out.iter().enumerate() {
                let waited = out[i].1;
                out[i] = (retry_out[k].0.clone(), waited + retry_out[k].1);
            }
        }
        out
    }

    /// One estimate pass: deadline preflight, then the coalescer (or the
    /// inline sequential path, which consults the same breaker).
    fn estimate_once(
        &self,
        subs: &[SubPlanQuery],
        deadline: Option<Instant>,
    ) -> Vec<(Result<f64, EstimateError>, Duration)> {
        if subs.is_empty() {
            return Vec::new();
        }
        let sh = &self.shared;
        let now = Instant::now();
        if let Some(d) = deadline {
            if now >= d {
                let late = now.duration_since(d);
                sh.note_deadline_expired(subs.len() as u64);
                return subs
                    .iter()
                    .map(|_| {
                        (
                            Err(EstimateError::DeadlineExceeded { late }),
                            Duration::ZERO,
                        )
                    })
                    .collect();
            }
        }
        if !sh.cfg.sequential {
            return self.submit_and_wait(subs, deadline);
        }
        let t = Instant::now();
        let admission = sh
            .breaker
            .as_ref()
            .map_or(Admission::Estimate, |b| b.admit(now, subs.len()));
        let out = match admission {
            Admission::Short => subs
                .iter()
                .map(|_| (Err(EstimateError::Shorted), Duration::ZERO))
                .collect(),
            Admission::Estimate => {
                let timeout = deadline_budget(sh.cfg.estimate_timeout, deadline, now);
                let out = estimate_all(sh.est.as_ref(), &sh.db, subs, timeout);
                if let Some(b) = &sh.breaker {
                    let hard = out
                        .iter()
                        .filter(|(r, _)| matches!(r, Err(e) if e.is_hard()))
                        .count();
                    b.record(Instant::now(), out.len(), hard);
                }
                out
            }
        };
        observe_serve_estimate(sh.est.name(), t.elapsed());
        out
    }

    /// Ships one query's sub-plan slice to the coalescer and blocks for
    /// the per-slot outcomes. The wait *includes* queue delay — that is
    /// the latency a client of the service actually sees.
    ///
    /// If the service is torn down mid-request — or the drainer dies
    /// with this job in hand — the slots degrade to typed hard failures
    /// (never a hang): `plan_query_via` then substitutes the PostgreSQL
    /// baseline per sub-plan, the same graceful degradation a panicking
    /// estimator gets.
    fn submit_and_wait(
        &self,
        subs: &[SubPlanQuery],
        deadline: Option<Instant>,
    ) -> Vec<(Result<f64, EstimateError>, Duration)> {
        let t0 = Instant::now();
        let (reply, outcome) = mpsc::channel();
        let job = EstimateJob {
            subs: subs.to_vec(),
            deadline,
            reply,
        };
        let received = match self.shared.queue.push(job) {
            Ok(()) => outcome.recv().ok(),
            Err(_) => None,
        };
        let out = received.unwrap_or_else(|| {
            subs.iter()
                .map(|_| {
                    (
                        Err(EstimateError::Panicked {
                            message: PIPELINE_UNAVAILABLE.to_string(),
                        }),
                        Duration::ZERO,
                    )
                })
                .collect()
        });
        observe_serve_estimate(self.shared.est.name(), t0.elapsed());
        out
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let prev = self.shared.live.fetch_sub(1, Ordering::AcqRel);
        gauge_set(
            "cardbench_serve_sessions_active",
            &[],
            prev.saturating_sub(1) as f64,
        );
    }
}

/// Records one service-side estimate wait (queue delay included).
fn observe_serve_estimate(method: &str, elapsed: Duration) {
    observe_secs(
        "cardbench_serve_estimate_latency_seconds",
        &[("method", method)],
        elapsed.as_secs_f64(),
    );
}
