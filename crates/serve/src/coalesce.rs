//! The cross-session batch coalescer: drains concurrent sessions'
//! sub-plan estimation jobs from one bounded queue into a single
//! `CardEst::estimate_batch` call per tick, deduplicating identical
//! sub-plans across sessions, and routes per-slot results (or typed
//! faults) back over each job's reply channel.
//!
//! Safety of the rewrite rests on two contracts the estimator crate
//! pins with differential tests:
//!
//! 1. **Composition independence** — `estimate_batch` values are
//!    per-slot bit-identical to sequential `estimate` regardless of what
//!    else is in the batch (per-call RNG is keyed by the sub-plan's
//!    canonical hash). Concatenating jobs or deduplicating slots can
//!    therefore never change any job's numbers.
//! 2. **Guarded degradation** — when a combined batch is unusable (a
//!    panic mid-batch, wrong arity, aggregate budget overrun), the tick
//!    falls back to the harness's own per-job path
//!    ([`cardbench_harness::estimate_all`]), which restores exact
//!    per-sub-plan fault attribution. A fault injected by one session's
//!    query degrades only that query's slots, identically to what the
//!    batch harness would have produced.
//!
//! Since the self-healing PR the submission queue is a crate-local
//! [`JobQueue`] instead of an `mpsc` channel: queued jobs live in
//! `Shared`, so they **survive a drainer crash** — the watchdog's
//! replacement drainer picks up exactly where the dead one stopped, and
//! only the jobs the dead drainer held in hand degrade (their reply
//! senders drop, each waiting session fails its own slots with a typed
//! hard error). Each tick additionally consults the circuit breaker
//! (open → every slot answers [`EstimateError::Shorted`] without
//! touching the estimator), fast-fails jobs whose end-to-end deadline
//! already expired, and asks ChaosServe for injected service-level
//! faults.
//!
//! `run_tick` has two callers: the drainer, over a gathered tick, and
//! a session serving its own request inline (`Session::estimate_once`),
//! over that one job. Both get the same chaos draw, deadline fast-fail,
//! breaker and guarded estimate, so self-healing behaves the same on
//! either route.

use std::collections::VecDeque;
use std::sync::mpsc::Sender;
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cardbench_engine::Database;
use cardbench_estimators::CardEst;
use cardbench_harness::{deadline_budget, estimate_all, guarded_estimate_batch, EstimateError};
use cardbench_obs::counter_add;
use cardbench_query::SubPlanQuery;

use crate::breaker::Admission;
use crate::chaos::TickFault;
use crate::Shared;

/// How often a blocked drainer wakes to beat its heartbeat and re-check
/// its generation. Far below any sane staleness threshold.
const HEARTBEAT_POLL: Duration = Duration::from_millis(20);

/// Per-slot `(outcome, latency)` results of one job, in sub-plan order.
pub(crate) type SlotResults = Vec<(Result<f64, EstimateError>, Duration)>;

/// `n` slots that all failed with `err` without an estimator call.
pub(crate) fn typed_slots(n: usize, err: EstimateError) -> SlotResults {
    vec![(Err(err), Duration::ZERO); n]
}

/// One job as a tick sees it: a query's sub-plan slice (in
/// `connected_subsets` order) and the end-to-end deadline the request
/// carries. A job past its deadline when the tick reaches it is failed
/// fast with [`EstimateError::DeadlineExceeded`] instead of consuming
/// estimator slots.
pub(crate) type TickJob<'a> = (&'a [SubPlanQuery], Option<Instant>);

/// One session's queued estimation request plus the channel its
/// per-slot outcomes go back on.
pub(crate) struct EstimateJob {
    pub(crate) subs: Vec<SubPlanQuery>,
    pub(crate) deadline: Option<Instant>,
    /// Send errors are ignored: a session dropped mid-request simply
    /// stops caring about its answer, and the tick proceeds for everyone
    /// else.
    pub(crate) reply: Sender<SlotResults>,
}

/// What a queue pop produced.
pub(crate) enum Pop {
    /// A job.
    Job(EstimateJob),
    /// Timed out with the queue still open: poll again (heartbeat tick).
    Empty,
    /// The queue is closed and drained: the drainer should exit.
    Closed,
}

struct QueueInner {
    jobs: VecDeque<EstimateJob>,
    closed: bool,
}

/// The bounded submission queue. Crate-local (Mutex + two Condvars)
/// rather than `mpsc` for one load-bearing reason: the buffer lives
/// *here*, in `Shared`, not inside a channel owned by a thread — so
/// queued jobs survive a drainer panic, a replacement drainer resumes
/// them, and `close()` can hand the unserved remainder back for typed
/// fast-failure at teardown.
pub(crate) struct JobQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

impl JobQueue {
    pub(crate) fn new(cap: usize) -> JobQueue {
        JobQueue {
            inner: Mutex::new(QueueInner {
                jobs: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Blocking bounded push: waits while the queue is full (the slow
    /// estimator back-pressures sessions, the queue never grows
    /// unboundedly). Returns the job back if the queue is closed.
    pub(crate) fn push(&self, job: EstimateJob) -> Result<(), EstimateJob> {
        let mut g = self.lock();
        loop {
            if g.closed {
                return Err(job);
            }
            if g.jobs.len() < self.cap {
                g.jobs.push_back(job);
                self.not_empty.notify_one();
                return Ok(());
            }
            g = self.not_full.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Pops one job, waiting up to `timeout`. [`Pop::Empty`] means "no
    /// job yet, queue still open" — the drainer's cue to beat its
    /// heartbeat and wait again.
    pub(crate) fn pop_timeout(&self, timeout: Duration) -> Pop {
        let mut g = self.lock();
        if let Some(job) = g.jobs.pop_front() {
            self.not_full.notify_one();
            return Pop::Job(job);
        }
        if g.closed {
            return Pop::Closed;
        }
        let (mut g, _) = self
            .not_empty
            .wait_timeout(g, timeout)
            .unwrap_or_else(|p| p.into_inner());
        match g.jobs.pop_front() {
            Some(job) => {
                self.not_full.notify_one();
                Pop::Job(job)
            }
            None if g.closed => Pop::Closed,
            None => Pop::Empty,
        }
    }

    /// Non-blocking pop (tick gathering).
    pub(crate) fn try_pop(&self) -> Option<EstimateJob> {
        let job = self.lock().jobs.pop_front();
        if job.is_some() {
            self.not_full.notify_one();
        }
        job
    }

    /// Closes the queue and returns every unserved job so the caller
    /// can fail them with typed per-slot errors. Pushes after this
    /// return `Err`; the drainer exits at its next pop.
    pub(crate) fn close(&self) -> Vec<EstimateJob> {
        let mut g = self.lock();
        g.closed = true;
        let drained = g.jobs.drain(..).collect();
        self.not_empty.notify_all();
        self.not_full.notify_all();
        drained
    }

    /// Queued (unserved) jobs right now.
    pub(crate) fn len(&self) -> usize {
        self.lock().jobs.len()
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        // A drainer panicking while holding this lock would poison it;
        // the queue's state is plain data, so recover rather than wedge
        // every session.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Per-tick outcome of [`coalesce_estimate`], for accounting.
pub struct CoalesceOutcome {
    /// Per-job results, aligned with the input jobs.
    pub results: Vec<Vec<(Result<f64, EstimateError>, Duration)>>,
    /// Whether the combined batch was unusable and the tick degraded to
    /// the per-job guarded path.
    pub fell_back: bool,
    /// Distinct sub-plans actually estimated.
    pub unique_subplans: usize,
    /// Total sub-plan slots across all jobs.
    pub total_subplans: usize,
}

/// Estimates several jobs' sub-plan slices in one coalesced call.
///
/// A single job takes the harness's own per-query path
/// ([`estimate_all`]: batch-first, guarded, oracle warm-timing) — a tick
/// with no concurrency behaves exactly like the batch harness. Multiple
/// jobs are deduplicated by sub-plan identity `(canonical_hash, mask)`
/// and estimated in one guarded combined batch; each slot's value is
/// then routed back to every job that asked for it. On a poisoned
/// combined batch every job degrades independently through
/// [`estimate_all`], preserving per-sub-plan fault attribution.
///
/// Values are bit-identical to the sequential path in all cases (see
/// the module docs); only latency attribution differs — combined-batch
/// slots share the batch's elapsed time evenly, and the oracle
/// warm-timing refinement applies only to single-job ticks (it adjusts
/// durations, never values).
pub fn coalesce_estimate(
    est: &dyn CardEst,
    db: &Database,
    jobs: &[&[SubPlanQuery]],
    timeout: Option<Duration>,
) -> CoalesceOutcome {
    let total_subplans: usize = jobs.iter().map(|j| j.len()).sum();
    if jobs.len() <= 1 {
        return CoalesceOutcome {
            results: jobs
                .iter()
                .map(|subs| estimate_all(est, db, subs, timeout))
                .collect(),
            fell_back: false,
            unique_subplans: total_subplans,
            total_subplans,
        };
    }

    // Dedup across sessions: identical sub-plans (same canonical query
    // hash and table mask — sessions replaying a shared workload overlap
    // heavily) are estimated once. `slot_of[job][i]` maps each original
    // slot to its index in the unique batch.
    let mut unique: Vec<SubPlanQuery> = Vec::with_capacity(total_subplans);
    let mut index: std::collections::HashMap<(u64, u64), usize> =
        std::collections::HashMap::with_capacity(total_subplans);
    let mut slot_of: Vec<Vec<usize>> = Vec::with_capacity(jobs.len());
    for subs in jobs {
        let mut slots = Vec::with_capacity(subs.len());
        for sub in *subs {
            let key = (sub.query.canonical_hash(), sub.mask.0);
            let idx = *index.entry(key).or_insert_with(|| {
                unique.push(sub.clone());
                unique.len() - 1
            });
            slots.push(idx);
        }
        slot_of.push(slots);
    }

    match guarded_estimate_batch(est, db, &unique, timeout) {
        Some(shared) => CoalesceOutcome {
            results: slot_of
                .iter()
                .map(|slots| slots.iter().map(|&i| shared[i].clone()).collect())
                .collect(),
            fell_back: false,
            unique_subplans: unique.len(),
            total_subplans,
        },
        None => CoalesceOutcome {
            // The combined batch died (panic / arity / budget): degrade
            // per job, exactly the path the batch harness takes for one
            // query — including its own batch-then-per-sub retry.
            results: jobs
                .iter()
                .map(|subs| estimate_all(est, db, subs, timeout))
                .collect(),
            fell_back: true,
            unique_subplans: unique.len(),
            total_subplans,
        },
    }
}

/// The drainer loop for generation `gen`: pop one job (beating the
/// heartbeat while idle), gather whatever else is queued — only while
/// more sessions are live than jobs gathered, up to `coalesce_window` —
/// then run the tick. A lone session is always served immediately, and
/// the tick doubles as a barrier that keeps concurrent replays of a
/// shared workload aligned on the same query, which is what makes
/// cross-session dedup actually fire.
///
/// Exits when the queue closes (teardown) or when `Shared::drainer_gen`
/// moves past `gen` — the watchdog superseded this drainer as wedged; a
/// superseded drainer finishes answering the jobs it holds (each job is
/// popped by exactly one drainer, so answers never duplicate) and then
/// stands down.
pub(crate) fn drain_loop(shared: &Shared, gen: u64) {
    let cap = shared.cfg.coalesce_max.max(1);
    let window = shared.cfg.coalesce_window;
    loop {
        if shared.superseded(gen) {
            return;
        }
        shared.beat();
        let first = match shared.queue.pop_timeout(HEARTBEAT_POLL) {
            Pop::Job(job) => job,
            Pop::Empty => continue,
            Pop::Closed => return,
        };
        shared.set_drainer_busy(true);
        shared.beat();
        let mut jobs = vec![first];
        while jobs.len() < cap {
            match shared.queue.try_pop() {
                Some(job) => jobs.push(job),
                None => break,
            }
        }
        if !window.is_zero() {
            let deadline = Instant::now() + window;
            'gather: while jobs.len() < cap && jobs.len() < shared.live_sessions() {
                let now = Instant::now();
                let Some(left) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    break;
                };
                shared.beat();
                match shared.queue.pop_timeout(left.min(HEARTBEAT_POLL)) {
                    Pop::Job(job) => {
                        jobs.push(job);
                        while jobs.len() < cap {
                            match shared.queue.try_pop() {
                                Some(job) => jobs.push(job),
                                None => break,
                            }
                        }
                    }
                    Pop::Empty => continue,
                    Pop::Closed => break 'gather,
                }
            }
        }
        let tick: Vec<TickJob<'_>> = jobs.iter().map(|j| (&j.subs[..], j.deadline)).collect();
        for (job, result) in jobs.iter().zip(run_tick(shared, &tick)) {
            let _ = job.reply.send(result);
        }
        shared.set_drainer_busy(false);
        shared.beat();
    }
}

/// Serves one tick and returns each job's per-slot results: chaos
/// faults, deadline fast-fail, breaker admission and the coalesced
/// estimate. A chaos `Panic` unwinds out of here. On the drainer it
/// takes the jobs in hand with it — their reply senders drop, each
/// waiting session degrades its own slots to a typed hard failure, and
/// the watchdog restarts the drainer over the still-intact queue; an
/// inline caller catches it and degrades its one job the same way.
pub(crate) fn run_tick(shared: &Shared, jobs: &[TickJob<'_>]) -> Vec<SlotResults> {
    let _sp = cardbench_obs::span_with("coalesced_batch", "serve", || {
        format!("{} jobs", jobs.len())
    });
    let fault = shared
        .chaos
        .as_ref()
        .map_or(TickFault::None, |c| c.fault_for_tick());
    if fault == TickFault::Panic {
        counter_add(
            "cardbench_serve_chaos_faults_total",
            &[("class", "panic")],
            1,
        );
        // An injected panic is the experiment, not noise: `resume_unwind`
        // unwinds without calling the process panic hook.
        std::panic::resume_unwind(Box::new(format!(
            "chaos-serve: injected tick panic ({} jobs in hand)",
            jobs.len()
        )));
    }
    if let TickFault::Slow(stall) = fault {
        counter_add(
            "cardbench_serve_chaos_faults_total",
            &[("class", "slow")],
            1,
        );
        std::thread::sleep(stall);
    }

    let now = Instant::now();
    // Fast-fail jobs whose end-to-end deadline has expired: typed
    // per-slot errors, zero estimator slots consumed. `live` indexes
    // the rest.
    let mut out: Vec<SlotResults> = Vec::with_capacity(jobs.len());
    let mut live: Vec<usize> = Vec::with_capacity(jobs.len());
    for (i, &(subs, deadline)) in jobs.iter().enumerate() {
        match deadline {
            Some(d) if now >= d => {
                shared.note_deadline_expired(subs.len() as u64);
                let late = now.duration_since(d);
                out.push(typed_slots(
                    subs.len(),
                    EstimateError::DeadlineExceeded { late },
                ));
            }
            _ => {
                live.push(i);
                out.push(Vec::new());
            }
        }
    }
    if live.is_empty() {
        return out;
    }

    let total_slots: usize = live.iter().map(|&i| jobs[i].0.len()).sum();
    let admission = shared
        .breaker
        .as_ref()
        .map_or(Admission::Estimate, |b| b.admit(now, total_slots));

    let results: Vec<SlotResults> = match admission {
        // Breaker open: every slot is shorted to the fallback without
        // paying the doomed call's latency.
        Admission::Short => live
            .iter()
            .map(|&i| typed_slots(jobs[i].0.len(), EstimateError::Shorted))
            .collect(),
        Admission::Estimate => {
            if let TickFault::Storm(stall) = fault {
                // Injected estimator storm: the admitted call pays the
                // stall, then hard-faults every slot ("failed, then
                // degraded") — exactly the latency profile the breaker
                // exists to cut short.
                counter_add(
                    "cardbench_serve_chaos_faults_total",
                    &[("class", "storm")],
                    1,
                );
                std::thread::sleep(stall);
                if let Some(b) = &shared.breaker {
                    b.record(Instant::now(), total_slots, total_slots);
                }
                let timed_out = Err(EstimateError::TimedOut {
                    elapsed: stall,
                    budget: shared.cfg.estimate_timeout.unwrap_or(stall),
                });
                let per_slot = stall / (total_slots.max(1) as u32);
                live.iter()
                    .map(|&i| vec![(timed_out.clone(), per_slot); jobs[i].0.len()])
                    .collect()
            } else {
                // A lone job's deadline tightens its estimate budget; a
                // multi-job tick keeps the configured timeout so one
                // tight deadline never perturbs other sessions' outcomes.
                let timeout = match live[..] {
                    [i] => deadline_budget(shared.cfg.estimate_timeout, jobs[i].1, now),
                    _ => shared.cfg.estimate_timeout,
                };
                let slices: Vec<&[SubPlanQuery]> = live.iter().map(|&i| jobs[i].0).collect();
                let out = coalesce_estimate(shared.est.as_ref(), &shared.db, &slices, timeout);
                if let Some(b) = &shared.breaker {
                    let hard = out
                        .results
                        .iter()
                        .flatten()
                        .filter(|(r, _)| matches!(r, Err(e) if e.is_hard()))
                        .count();
                    b.record(Instant::now(), out.total_subplans, hard);
                }
                counter_add("cardbench_serve_coalesced_batches_total", &[], 1);
                counter_add(
                    "cardbench_serve_coalesced_jobs_total",
                    &[],
                    live.len() as u64,
                );
                counter_add(
                    "cardbench_serve_deduped_subplans_total",
                    &[],
                    (out.total_subplans - out.unique_subplans) as u64,
                );
                counter_add(
                    "cardbench_serve_coalesce_fallbacks_total",
                    &[],
                    u64::from(out.fell_back),
                );
                out.results
            }
        }
    };
    for (&i, result) in live.iter().zip(results) {
        out[i] = result;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use cardbench_datagen::{stats_catalog, StatsConfig};
    use cardbench_engine::{CostModel, TrueCardService};
    use cardbench_estimators::postgres::PostgresEst;
    use cardbench_query::{connected_subsets, SubPlanQuery};
    use cardbench_workload::{stats_ceb, WorkloadConfig};
    use std::sync::{mpsc, Arc};

    fn test_shared(cfg: ServeConfig) -> Arc<Shared> {
        let db = Arc::new(cardbench_engine::Database::new(stats_catalog(
            &StatsConfig::tiny(3),
        )));
        let est: Arc<dyn cardbench_estimators::CardEst> = Arc::new(PostgresEst::fit(&db));
        Arc::new(Shared::new(
            db,
            Arc::new(TrueCardService::new()),
            est,
            CostModel::default(),
            cfg,
        ))
    }

    fn test_subs(shared: &Shared) -> Vec<SubPlanQuery> {
        let wl = stats_ceb(
            &shared.db,
            &WorkloadConfig {
                seed: 5,
                templates: 2,
                queries: 2,
                max_tables: 3,
                max_predicates: 3,
                retries: 10,
                max_subplan_card: 1e6,
            },
        );
        let q = &wl.queries[0].query;
        connected_subsets(q)
            .iter()
            .map(|&m| SubPlanQuery::project(q, m))
            .collect()
    }

    /// A session that vanishes mid-request (its reply receiver is
    /// already gone when the drainer answers) must not stall or poison
    /// the drainer: the next job still gets served.
    #[test]
    fn dropped_reply_receiver_never_stalls_the_drainer() {
        let shared = test_shared(ServeConfig::default());
        let subs = test_subs(&shared);
        let drainer = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || drain_loop(&shared, 0))
        };

        // Job 1: the "session" is already gone.
        let (dead_reply, dead_rx) = mpsc::channel();
        drop(dead_rx);
        shared
            .queue
            .push(EstimateJob {
                subs: subs.clone(),
                deadline: None,
                reply: dead_reply,
            })
            .unwrap_or_else(|_| panic!("queue accepts"));

        // Job 2: a live session; it must still be answered promptly.
        let (reply, live_rx) = mpsc::channel();
        shared
            .queue
            .push(EstimateJob {
                subs: subs.clone(),
                deadline: None,
                reply,
            })
            .unwrap_or_else(|_| panic!("queue accepts"));
        let out = live_rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("drainer survived the dead receiver");
        assert_eq!(out.len(), subs.len());
        assert!(out.iter().all(|(r, _)| r.is_ok()));

        let unserved = shared.queue.close();
        assert!(unserved.is_empty());
        drainer.join().expect("drainer exits cleanly");
    }

    /// A job whose deadline expired while queued is failed fast with
    /// typed `DeadlineExceeded` slots and consumes no estimator call;
    /// a live sibling in the same tick is still estimated.
    #[test]
    fn queue_expired_jobs_fail_fast_and_typed() {
        let shared = test_shared(ServeConfig::default());
        let subs = test_subs(&shared);
        let past = Instant::now() - Duration::from_millis(5);
        let mut out = run_tick(&shared, &[(&subs, Some(past)), (&subs, None)]);
        assert_eq!(out.len(), 2);
        let live = out.pop().expect("live job answered");
        assert!(live.iter().all(|(r, _)| r.is_ok()));
        assert_eq!(
            shared.breaker.as_ref().map(|b| b.stats().observed_slots),
            Some(subs.len() as u64)
        );
        let out = out.pop().expect("expired job answered");
        assert_eq!(out.len(), subs.len());
        for (r, lat) in &out {
            assert!(
                matches!(r, Err(EstimateError::DeadlineExceeded { late }) if *late > Duration::ZERO),
                "expected typed deadline failure, got {r:?}"
            );
            assert_eq!(*lat, Duration::ZERO);
        }
        assert_eq!(shared.stats_deadline_expired(), subs.len() as u64);
    }

    /// Closing the queue hands unserved jobs back and fails later
    /// pushes, so teardown can fast-fail everything typed.
    #[test]
    fn close_returns_unserved_jobs_and_rejects_pushes() {
        let queue = JobQueue::new(4);
        let (reply, _rx) = mpsc::channel();
        queue
            .push(EstimateJob {
                subs: Vec::new(),
                deadline: None,
                reply: reply.clone(),
            })
            .unwrap_or_else(|_| panic!("open queue accepts"));
        assert_eq!(queue.len(), 1);
        let unserved = queue.close();
        assert_eq!(unserved.len(), 1);
        assert!(queue
            .push(EstimateJob {
                subs: Vec::new(),
                deadline: None,
                reply,
            })
            .is_err());
        assert!(matches!(queue.pop_timeout(Duration::ZERO), Pop::Closed));
    }
}
