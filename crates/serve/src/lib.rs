//! Estimation-as-a-service: a long-running, thread-per-session serving
//! layer over the benchmark's planning pipeline, with **cross-session
//! batch coalescing** for when sessions outnumber cores and a
//! **self-healing layer** — circuit breaker, deadline propagation,
//! wedged-tick takeover — that keeps it answering under the failure
//! modes the paper shows learned estimators actually have. The server
//! runs no thread of its own: every tick runs on the thread of a
//! request that asked for an estimate.
//!
//! The batch harness measures inference one query stream at a time; a
//! production estimator serves many concurrent streams against one
//! database. The two amortization layers the repo already has —
//! per-query `estimate_batch` (one forward pass over a query's whole
//! sub-plan space) and the shared engine memos (filtered scans,
//! key-weight aggregates, true-cardinality cache, topology cache) —
//! both compose naturally across sessions, and this crate adds the
//! third: concurrent sessions' sub-plan batches are gathered from a
//! bounded submission queue into **one** `CardEst::estimate_batch` call
//! per tick, with duplicate sub-plans across sessions estimated
//! once. Per-request fault attribution is preserved — each submitted
//! slot gets its own `Result<f64, EstimateError>` routed back over the
//! session's reply channel, and a poisoned combined batch degrades only
//! to the per-job guarded path, never to a whole-tick failure.
//!
//! # Routing
//!
//! Coalescing costs a queue hand-off, a gather window and a reply
//! wake-up per request, and it only pays when sessions contend for
//! cores. So each request is routed by the server's own state, not by a
//! knob: while `live sessions ≤ available_parallelism()` every session
//! already has a core, and the request runs the serving tick **inline**
//! on its own thread — `coalesce::run_tick` over that one job (chaos
//! draw, deadline fast-fail, breaker, guarded estimate). Past that it
//! takes the **coalesced** route, whose inline case this is: it leads a
//! tick over every queued job if none is running, else queues its job
//! for the running tick's leader (see [`coalesce`]).
//! `ServeConfig::sequential` pins every request inline. [`ServeStats`]
//! counts jobs per route, and `cardbench_serve_queries_total{mode}`
//! labels each request's route.
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
//!   consumed), coalesce gather, and the estimate budget (a lone job's
//!   estimate may take the time left before its deadline). Faults are
//!   not retried: an injected fault repeats on the same key, and a storm
//!   outlasts any backoff.
//! - **Tick panics and wedges**: a tick panic is caught on the thread
//!   that ran it, on either route, and only that tick's jobs degrade
//!   (typed). A coalesced tick older than `heartbeat_stale_after` is
//!   taken over by a session whose job is still queued.
//! - **Tick chaos** ([`ServeConfig::chaos`]): deterministic
//!   service-level fault injection (tick panics, slow ticks, estimator
//!   fault storms) for the chaos bench and the self-healing tests, drawn
//!   by the estimators crate's one injector keyed by the tick index.
//!
//! With chaos disabled and no deadlines, all of this is observation
//! only: the breaker never opens, and serving stays bit-identical to the
//! pre-self-healing service — the differential tests pin that too.
//!
//! Observability: sessions open `run` > `session` spans on their own
//! thread, every tick opens a `coalesced_batch` span on the session
//! thread that runs it, and the service maintains `cardbench_serve_*`
//! counters and latency histograms (p50/p95/p99 via
//! `Histogram::percentiles`). A live Prometheus text snapshot plus
//! `/healthz` (no wedged tick) and `/readyz` (under session cap,
//! breaker not open) endpoints are served on demand by
//! [`prom_http::PromServer`].

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod breaker;
pub mod coalesce;
pub mod loadgen;
pub mod prom_http;

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use cardbench_engine::{CostModel, Database, TrueCardService};
use cardbench_estimators::chaos::ChaosConfig;
use cardbench_estimators::postgres::PostgresEst;
use cardbench_estimators::CardEst;
use cardbench_feedback::{FeedbackEst, FeedbackStore};
use cardbench_harness::{plan_query_via, record_feedback_metrics, EstimateError, PlannedQuery};
use cardbench_obs::{counter_add, gauge_set, observe_secs};
use cardbench_query::{BoundQuery, SubPlanQuery};
use cardbench_workload::WorkloadQuery;

use breaker::Breaker;
use coalesce::{typed_slots, Reply, SlotResults};

pub use breaker::{BreakerConfig, BreakerState, BreakerStats};
pub use cardbench_feedback::FeedbackStats;
pub use coalesce::{coalesce_estimate, CoalesceOutcome, TickFault};
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
    /// Bound of the submission queue. A full queue back-pressures the
    /// submitting session (blocking send), never grows unboundedly.
    pub queue_cap: usize,
    /// `true` serves every request inline on its session's thread (the
    /// same tick as a leader's, over one job) whatever the session
    /// count; `false` routes by measured state — inline while every live
    /// session has a core, coalesced otherwise. The load generator's
    /// baseline mode.
    pub sequential: bool,
    /// Circuit breaker in front of the estimator; `None` disables it.
    /// Enabled by default — with a healthy estimator it is observation
    /// only (serving stays bit-identical), and with a faulting one it is
    /// the difference between "every request pays the doomed call" and
    /// "requests short to the fallback instantly".
    pub breaker: Option<BreakerConfig>,
    /// Service-level fault injection, one draw per tick keyed by the
    /// tick index; `None` (the default) disables it.
    pub chaos: Option<ChaosConfig<TickFault>>,
    /// Age past which a coalesced-route tick counts as wedged: a
    /// session whose job is still queued then takes the lease over, and
    /// `/healthz` fails. Must comfortably exceed an honest tick's
    /// duration; `Duration::ZERO` never counts a tick wedged (no
    /// takeovers, and `/healthz` ignores tick age).
    pub heartbeat_stale_after: Duration,
    /// Execution-feedback cache shared by every session: `true` wraps
    /// the served estimator in a [`FeedbackEst`] over one
    /// [`FeedbackStore`], and each planned query's true sub-plan
    /// cardinalities are observed back into the store. `false` (the
    /// default) leaves the service bit-identical to a feedback-less
    /// build — pinned by the differential tests.
    pub feedback: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_sessions: 64,
            session_subplan_budget: u64::MAX,
            queue_cap: 256,
            sequential: false,
            breaker: Some(BreakerConfig::default()),
            chaos: None,
            heartbeat_stale_after: Duration::from_secs(5),
            feedback: false,
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

/// State shared by the server and every session. The submission queue
/// and its lease live *here*, not in any thread, so whichever session
/// leads the next tick finds every queued job.
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
    /// `available_parallelism()` at start: the live-session count up to
    /// which a request runs its tick inline.
    cores: usize,
    inline_jobs: AtomicU64,
    coalesced_jobs: AtomicU64,
    /// The bounded submission queue and the coalesced route's lease.
    pub(crate) queue: coalesce::JobQueue,
    /// Cross-session execution-feedback store, if enabled. The served
    /// `est` is then already the [`FeedbackEst`] wrapper over it.
    pub(crate) feedback: Option<Arc<FeedbackStore>>,
    /// Circuit breaker for the served estimator, if enabled.
    pub(crate) breaker: Option<Breaker>,
    /// Ticks drawn by the chaos injector: the next tick's draw key.
    pub(crate) chaos_ticks: AtomicU64,
    /// Tick panics injected so far, against `ChaosConfig::max_panics`.
    pub(crate) chaos_panics: AtomicU32,
    shutting_down: AtomicBool,
    deadline_expired: AtomicU64,
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
        // Feedback wraps the estimator *inside* the service, so
        // coalesced and inline ticks resolve through the same shared store.
        let (est, feedback) = if cfg.feedback {
            let store = Arc::new(FeedbackStore::default());
            let wrapped: Arc<dyn CardEst> = Arc::new(FeedbackEst::new(
                Box::new(SharedEst(est)),
                Arc::clone(&store),
            ));
            (wrapped, Some(store))
        } else {
            (est, None)
        };
        let breaker = cfg.breaker.clone().map(|bc| Breaker::new(bc, est.name()));
        Shared {
            db,
            truth,
            est,
            feedback,
            cost,
            cfg,
            fallback: OnceLock::new(),
            live: AtomicUsize::new(0),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            inline_jobs: AtomicU64::new(0),
            coalesced_jobs: AtomicU64::new(0),
            queue,
            breaker,
            chaos_ticks: AtomicU64::new(0),
            chaos_panics: AtomicU32::new(0),
            shutting_down: AtomicBool::new(false),
            deadline_expired: AtomicU64::new(0),
        }
    }

    pub(crate) fn live_sessions(&self) -> usize {
        self.live.load(Ordering::Acquire)
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
    /// How long the running coalesced-route tick has held the lease;
    /// `None` when no tick is running.
    pub tick_age: Option<Duration>,
    /// Jobs queued and not yet picked up by a tick.
    pub queue_depth: usize,
    /// Estimate jobs (one per query's sub-plan set) served by an inline
    /// tick on the session's own thread.
    pub inline_jobs: u64,
    /// Estimate jobs served on the coalesced route (led or queued).
    pub coalesced_jobs: u64,
    /// Wedged ticks whose lease a waiting session took over.
    pub watchdog_restarts: u64,
    /// Always 0: the service does not retry faulted slots. Kept for
    /// readers of the field.
    pub retries: u64,
    /// Sub-plan slots fast-failed because their deadline expired in the
    /// queue (plus estimate batches skipped for the same reason).
    pub deadline_expired_slots: u64,
    /// Breaker state, `None` when the breaker is disabled.
    pub breaker_state: Option<BreakerState>,
    /// Breaker counters (zeros when disabled).
    pub breaker: BreakerStats,
    /// Tick panics injected by tick chaos so far (either route).
    pub chaos_panics: u32,
    /// Feedback-store counters, `None` when feedback is disabled.
    pub feedback: Option<FeedbackStats>,
}

/// The estimation service: owns the shared engine state and hands out
/// [`Session`]s. It runs no thread: every tick runs on a requesting
/// session's thread.
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Starts the service. All sessions share `db`, `truth`, and `est`
    /// by reference — the engine memos and the true-cardinality cache
    /// warm up across *users*, not just across queries.
    pub fn start(
        db: Arc<Database>,
        truth: Arc<TrueCardService>,
        est: Arc<dyn CardEst>,
        cost: CostModel,
        cfg: ServeConfig,
    ) -> Server {
        Server {
            shared: Arc::new(Shared::new(db, truth, est, cost, cfg)),
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
            tick_age: sh.queue.tick_age(),
            queue_depth: sh.queue.len(),
            inline_jobs: sh.inline_jobs.load(Ordering::Acquire),
            coalesced_jobs: sh.coalesced_jobs.load(Ordering::Acquire),
            watchdog_restarts: sh.queue.takeovers(),
            retries: 0,
            deadline_expired_slots: sh.stats_deadline_expired(),
            breaker_state: sh.breaker.as_ref().map(Breaker::state),
            breaker: sh.breaker.as_ref().map(Breaker::stats).unwrap_or_default(),
            chaos_panics: sh.chaos_panics.load(Ordering::Acquire),
            feedback: sh.feedback.as_ref().map(|s| s.stats()),
        }
    }

    /// Liveness/readiness probes for [`PromServer::bind_with_probes`]:
    /// `/healthz` fails while a coalesced-route tick is wedged (older
    /// than a nonzero `heartbeat_stale_after`), `/readyz` is "will a new
    /// request be served well" (under the session cap, breaker not open,
    /// not shutting down).
    pub fn probes(&self) -> HealthProbes {
        let live = Arc::clone(&self.shared);
        let ready = Arc::clone(&self.shared);
        HealthProbes {
            healthy: Arc::new(move || {
                if live.is_shutting_down() {
                    return Err("shutting down".to_string());
                }
                if let Some(age) = live.queue.wedged(live.cfg.heartbeat_stale_after) {
                    return Err(format!("tick wedged ({age:?})"));
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
            let _ = job.reply.send(Reply::Answer(unavailable(job.subs.len())));
        }
    }

    /// Graceful shutdown: begins teardown. There is no thread to join —
    /// a tick in flight finishes on its session's thread. Sessions still
    /// live get typed errors, never hangs.
    pub fn shutdown(self) {
        self.begin_teardown();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.begin_teardown();
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
    /// sub-plan estimation by an inline tick, or on the coalesced route
    /// (see the crate docs' routing rule), then injection, plan choice,
    /// and Q-/P-Error — semantically identical to the harness's phase 1.
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
        // The route, decided once per request from the server's own
        // state: while every live session has a core, gathering could
        // only win through dedup, so the tick runs on this thread.
        let inline = sh.cfg.sequential || sh.live_sessions() <= sh.cores;
        // Snapshot before planning: the estimate calls inside
        // `plan_query_via` hit the feedback store (hits/overrides/
        // corrections), and the observation below refreshes it; the
        // folded delta must cover both sides.
        let fb_before = sh.feedback.as_ref().map(|s| s.stats());
        let planned = plan_query_via(
            &sh.db,
            wq,
            &|subs| self.estimate(subs, deadline, inline),
            &sh.truth,
            &sh.cost,
            &sh.fallback,
        );
        if let Some(store) = &sh.feedback {
            if planned.plan.is_ok() {
                let _fb =
                    cardbench_obs::span_with("feedback", "serve", || format!("Q{}", planned.id));
                let p = &planned;
                store.observe_subplans(&p.subs, &p.sub_est_cards, &p.sub_true_cards);
            }
            if let Some(before) = &fb_before {
                record_feedback_metrics(sh.est.name(), before, &store.stats());
            }
        }
        // Refund the budget charge on full-query degradation: the query
        // either produced no plan at all (bind/truth failure) or every
        // sub-plan slot hard-failed to the fallback — the session got
        // nothing from the estimator it is budgeted against, and a
        // transient fault (tick panic, storm, teardown race) must not
        // permanently eat its quota.
        let wholly_degraded =
            planned.subplans > 0 && planned.fallback_subplans == planned.subplans as u64;
        if planned.plan.is_err() || wholly_degraded {
            self.used = self.used.saturating_sub(requested);
        }
        let mode = if inline { "inline" } else { "coalesced" };
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

    /// One estimate pass over one job: an inline tick on this thread, or
    /// the coalesced route (lead a tick, or queue and wait). The wait
    /// *includes* queue delay — that is the latency a client of the
    /// service actually sees.
    ///
    /// If the tick holding this job panics (tick chaos) or the service
    /// is torn down mid-request, the slots degrade to typed hard
    /// failures (never a hang): `plan_query_via` then substitutes the
    /// PostgreSQL baseline per sub-plan, the same graceful degradation a
    /// panicking estimator gets.
    fn estimate(
        &self,
        subs: &[SubPlanQuery],
        deadline: Option<Instant>,
        inline: bool,
    ) -> SlotResults {
        if subs.is_empty() {
            return Vec::new();
        }
        let sh = &self.shared;
        let t0 = Instant::now();
        let out = if inline {
            sh.inline_jobs.fetch_add(1, Ordering::Relaxed);
            coalesce::run_tick_caught(sh, &[(subs, deadline)]).and_then(|mut results| results.pop())
        } else {
            sh.coalesced_jobs.fetch_add(1, Ordering::Relaxed);
            coalesce::serve_queued(sh, subs, deadline)
        };
        observe_serve_estimate(sh.est.name(), t0.elapsed());
        out.unwrap_or_else(|| unavailable(subs.len()))
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

/// `n` typed pipeline-unavailable slots.
fn unavailable(n: usize) -> SlotResults {
    typed_slots(
        n,
        EstimateError::Panicked {
            message: PIPELINE_UNAVAILABLE.to_string(),
        },
    )
}

/// Records one service-side estimate wait (queue delay included).
fn observe_serve_estimate(method: &str, elapsed: Duration) {
    observe_secs(
        "cardbench_serve_estimate_latency_seconds",
        &[("method", method)],
        elapsed.as_secs_f64(),
    );
}
