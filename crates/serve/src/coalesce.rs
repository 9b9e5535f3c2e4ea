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
//! The submission queue is a crate-local `JobQueue` instead of an
//! `mpsc` channel, and it carries the **lease** of the coalesced route:
//! no thread serves it. A request that finds no tick running leads one
//! on its own thread (`serve_queued`): it gathers the queued jobs,
//! runs the tick, answers them, and hands the lease to the owner of the
//! next queued job (or frees it when nothing is queued). A request that
//! finds a tick running queues its job and waits for a `Reply`: its
//! answer, or the lease. Once a running tick is older than
//! `heartbeat_stale_after`, a session whose job is still queued (or
//! blocked on a full queue) takes the lease over and leads its own job;
//! the superseded leader, if it ever wakes, answers the jobs it holds
//! and hands off nothing. Each tick additionally consults the circuit
//! breaker (open → every slot answers [`EstimateError::Shorted`]
//! without touching the estimator), fast-fails jobs whose end-to-end
//! deadline already expired, and draws its injected service-level
//! fault ([`TickFault`]) from `ServeConfig::chaos`.
//!
//! `run_tick` has two callers, both under `catch_unwind` on the
//! requesting session's thread: a leader over its gathered tick, and a
//! session serving its own request inline (`Session::estimate_once`),
//! the degenerate tick of one job with no lease. Both get the same
//! chaos draw, deadline fast-fail, breaker and guarded estimate, so
//! self-healing behaves the same on either route.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use cardbench_engine::Database;
use cardbench_estimators::CardEst;
use cardbench_harness::{deadline_budget, estimate_all, guarded_estimate_batch, EstimateError};
use cardbench_obs::counter_add;
use cardbench_query::{JoinQuery, SubPlanQuery};

use crate::breaker::Admission;
use crate::Shared;

/// Maximum jobs (one job = one query's sub-plan slice) in one tick.
const COALESCE_MAX: usize = 64;

/// How long a leader may wait for more sessions' jobs once it holds its
/// own — only while *more sessions are live than jobs gathered*, so a
/// full house stops the clock early. This bounded wait is what lets
/// concurrent replays of a shared workload land in the same tick and
/// dedup.
const COALESCE_WINDOW: Duration = Duration::from_micros(500);

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

/// What a queued job's owner receives.
pub(crate) enum Reply {
    /// The job's per-slot results.
    Answer(SlotResults),
    /// The lease, handed off at generation `.0`: lead the next tick with
    /// this job.
    Lead(u64),
}

/// One session's queued estimation request plus the channel its
/// [`Reply`] goes back on.
pub(crate) struct EstimateJob {
    pub(crate) subs: Vec<SubPlanQuery>,
    pub(crate) deadline: Option<Instant>,
    /// Send errors are ignored: a session dropped mid-request simply
    /// stops caring about its answer, and the tick proceeds for everyone
    /// else.
    pub(crate) reply: Sender<Reply>,
    /// Queue-assigned identity, so a waiting owner can withdraw its job
    /// to take over a wedged tick.
    ticket: u64,
}

/// The running tick's leader: its generation and when the lease reached
/// it.
#[derive(Clone, Copy)]
struct Lease {
    gen: u64,
    since: Instant,
}

/// What [`JobQueue::submit`] made of a request.
enum Submitted {
    /// The request holds the lease at this generation: lead.
    Lead(u64),
    /// The job is queued under this ticket: wait for its reply.
    Queued(u64),
}

struct QueueInner {
    jobs: VecDeque<EstimateJob>,
    closed: bool,
    /// `Some` while a tick is running (or the lease is on its way to
    /// the next leader). Held whenever a job is queued.
    lease: Option<Lease>,
    /// Latest lease generation; a takeover bumps it.
    gen: u64,
    next_ticket: u64,
    takeovers: u64,
}

impl QueueInner {
    /// The one "is this tick wedged" rule: `Ok(age)` when the running
    /// tick has held the lease longer than `stale_after` (never, when
    /// zero); otherwise how long until it would be (`Duration::MAX`:
    /// never).
    fn wedged(&self, stale_after: Duration) -> Result<Duration, Duration> {
        if stale_after.is_zero() {
            return Err(Duration::MAX);
        }
        let age = self.lease.map_or(Duration::ZERO, |l| l.since.elapsed());
        if age <= stale_after {
            return Err(stale_after - age);
        }
        Ok(age)
    }

    /// Supersedes a wedged tick: bumps the generation, counts the
    /// takeover and returns the new generation. Otherwise returns how
    /// long the caller may wait before asking again.
    fn take_over(&mut self, stale_after: Duration) -> Result<u64, Duration> {
        self.wedged(stale_after)?;
        self.gen += 1;
        self.lease = Some(Lease {
            gen: self.gen,
            since: Instant::now(),
        });
        self.takeovers += 1;
        counter_add(
            "cardbench_serve_watchdog_restarts_total",
            &[("reason", "wedged")],
            1,
        );
        Ok(self.gen)
    }
}

/// The bounded submission queue and the coalesced route's lease. The
/// buffer lives *here*, in `Shared`, not in any thread, so a tick panic
/// loses only the jobs its leader held, and `close()` can hand the
/// unserved remainder back for typed fast-failure at teardown.
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
                lease: None,
                gen: 0,
                next_ticket: 0,
                takeovers: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Lead or queue: takes the free lease, or queues `job` (blocking
    /// while the queue is full — the slow estimator back-pressures
    /// sessions, the queue never grows unboundedly — unless the running
    /// tick goes stale, which this request then takes over). `None`
    /// when the queue is closed.
    fn submit(&self, mut job: EstimateJob, stale_after: Duration) -> Option<Submitted> {
        let mut g = self.lock();
        loop {
            if g.closed {
                return None;
            }
            if g.lease.is_none() {
                g.lease = Some(Lease {
                    gen: g.gen,
                    since: Instant::now(),
                });
                return Some(Submitted::Lead(g.gen));
            }
            if g.jobs.len() < self.cap {
                job.ticket = g.next_ticket;
                g.next_ticket += 1;
                g.jobs.push_back(job);
                self.not_empty.notify_one();
                return Some(Submitted::Queued(g.next_ticket - 1));
            }
            g = match g.take_over(stale_after) {
                Ok(gen) => return Some(Submitted::Lead(gen)),
                Err(left) => self
                    .not_full
                    .wait_timeout(g, left)
                    .map_or_else(|p| p.into_inner().0, |(g, _)| g),
            };
        }
    }

    /// Takes job `ticket` back out of the queue to lead it, if it is
    /// still queued and the running tick is stale; otherwise how long
    /// to wait before asking again (`Duration::MAX`: until the reply
    /// comes, the job being in a leader's hands).
    fn withdraw(&self, ticket: u64, stale_after: Duration) -> Result<u64, Duration> {
        let mut g = self.lock();
        let Some(pos) = g.jobs.iter().position(|j| j.ticket == ticket) else {
            return Err(Duration::MAX);
        };
        let gen = g.take_over(stale_after)?;
        g.jobs.remove(pos);
        self.not_full.notify_one();
        Ok(gen)
    }

    /// A leader's gather: up to `COALESCE_MAX - 1` queued jobs beside
    /// its own, waiting up to `COALESCE_WINDOW` while more sessions are
    /// live than jobs held.
    fn gather(&self, live: &dyn Fn() -> usize) -> Vec<EstimateJob> {
        let mut jobs = Vec::new();
        let deadline = Instant::now() + COALESCE_WINDOW;
        let mut g = self.lock();
        loop {
            let room = COALESCE_MAX - 1 - jobs.len();
            let take = room.min(g.jobs.len());
            if take > 0 {
                jobs.extend(g.jobs.drain(..take));
                self.not_full.notify_all();
            }
            let held = jobs.len() + 1;
            let left = deadline.saturating_duration_since(Instant::now());
            if g.closed || held >= COALESCE_MAX || held >= live() || left.is_zero() {
                return jobs;
            }
            g = self
                .not_empty
                .wait_timeout(g, left)
                .map_or_else(|p| p.into_inner().0, |(g, _)| g);
        }
    }

    /// Ends generation `gen`'s tick: hands the lease to the owner of
    /// the next queued job, or frees it when nothing is queued. A
    /// superseded leader does neither.
    fn finish(&self, gen: u64) {
        let mut g = self.lock();
        if g.lease.map(|l| l.gen) != Some(gen) {
            return;
        }
        while let Some(next) = g.jobs.pop_front() {
            self.not_full.notify_one();
            g.lease = Some(Lease {
                gen,
                since: Instant::now(),
            });
            // An owner that is gone cannot lead: try the next one.
            if next.reply.send(Reply::Lead(gen)).is_ok() {
                return;
            }
        }
        g.lease = None;
    }

    /// Closes the queue and returns every unserved job so the caller
    /// can fail them with typed per-slot errors. Later submissions
    /// return `None`; a gathering leader stops waiting.
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

    /// How long the running tick has held the lease, `None` when no
    /// tick is running.
    pub(crate) fn tick_age(&self) -> Option<Duration> {
        self.lock().lease.map(|l| l.since.elapsed())
    }

    /// The running tick's age when it is wedged by the takeover rule,
    /// `None` otherwise.
    pub(crate) fn wedged(&self, stale_after: Duration) -> Option<Duration> {
        self.lock().wedged(stale_after).ok()
    }

    /// Wedged ticks taken over so far.
    pub(crate) fn takeovers(&self) -> u64 {
        self.lock().takeovers
    }

    fn lock(&self) -> MutexGuard<'_, QueueInner> {
        // The queue's state is plain data, so recover rather than wedge
        // every session if a holder ever panicked.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

/// Serves one request on the coalesced route: lead a tick if none is
/// running, else queue the job and wait for its answer — or for the
/// lease, handed off or taken over from a stale tick, and then lead.
/// `None` when the service is torn down under the request or the tick
/// holding its job panicked.
pub(crate) fn serve_queued(
    shared: &Shared,
    subs: &[SubPlanQuery],
    deadline: Option<Instant>,
) -> Option<SlotResults> {
    let stale_after = shared.cfg.heartbeat_stale_after;
    let (reply, outcome) = mpsc::channel();
    let job = EstimateJob {
        subs: subs.to_vec(),
        deadline,
        reply,
        ticket: 0,
    };
    let gen = match shared.queue.submit(job, stale_after)? {
        Submitted::Lead(gen) => gen,
        Submitted::Queued(ticket) => {
            let mut wait = stale_after;
            loop {
                match outcome.recv_timeout(wait) {
                    Ok(Reply::Answer(results)) => return Some(results),
                    Ok(Reply::Lead(gen)) => break gen,
                    Err(RecvTimeoutError::Disconnected) => return None,
                    Err(RecvTimeoutError::Timeout) => {
                        match shared.queue.withdraw(ticket, stale_after) {
                            Ok(gen) => break gen,
                            Err(left) => wait = left,
                        }
                    }
                }
            }
        }
    };
    let others = shared.queue.gather(&|| shared.live_sessions());
    let mut tick: Vec<TickJob<'_>> = Vec::with_capacity(others.len() + 1);
    tick.push((subs, deadline));
    tick.extend(others.iter().map(|j| (&j.subs[..], j.deadline)));
    let mut own = None;
    // After a caught panic the gathered jobs drop unanswered: each
    // owner's receiver disconnects and it degrades its own slots.
    if let Some(results) = run_tick_caught(shared, &tick) {
        let mut results = results.into_iter();
        own = results.next();
        for (job, result) in others.iter().zip(results) {
            let _ = job.reply.send(Reply::Answer(result));
        }
    }
    drop(others);
    shared.queue.finish(gen);
    own
}

/// [`run_tick`] with its panic caught where it happens: `None` means
/// the tick panicked and every job in it degrades.
pub(crate) fn run_tick_caught(shared: &Shared, jobs: &[TickJob<'_>]) -> Option<Vec<SlotResults>> {
    catch_unwind(AssertUnwindSafe(|| run_tick(shared, jobs))).ok()
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
/// jobs are deduplicated by sub-plan identity (the projected query, in
/// its table order, and its mask) and estimated in one guarded combined
/// batch; each slot's value is then routed back to every job that asked
/// for it. On a poisoned combined batch every job degrades independently
/// through [`estimate_all`], preserving per-sub-plan fault attribution.
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

    // Dedup across sessions: identical sub-plans (sessions replaying a
    // shared workload overlap heavily) are estimated once. The key is the
    // sub-plan itself, not its order-free `canonical_hash`: estimators
    // that root a join tree at the first table answer a reordered query
    // differently. `slot_of[job][i]` maps each original slot to its
    // index in the unique batch.
    let mut unique: Vec<SubPlanQuery> = Vec::with_capacity(total_subplans);
    let mut index: std::collections::HashMap<(&JoinQuery, u64), usize> =
        std::collections::HashMap::with_capacity(total_subplans);
    let mut slot_of: Vec<Vec<usize>> = Vec::with_capacity(jobs.len());
    for subs in jobs {
        let mut slots = Vec::with_capacity(subs.len());
        for sub in *subs {
            let key = (&sub.query, sub.mask.0);
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

/// One injectable serving-tick fault class, drawn once per tick from
/// `ServeConfig::chaos` (keyed by the tick index); its duration is the
/// config's `stall`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickFault {
    /// The tick panics with its jobs in hand (bounded by `max_panics`).
    Panic,
    /// The tick stalls for `stall` before estimating: a wedged estimator
    /// call. Past `heartbeat_stale_after` a queued session takes it over.
    Slow,
    /// The estimator is storming: an admitted call pays `stall`, then
    /// every slot hard-faults — the breaker's reason to exist.
    Storm,
}

/// This tick's injected fault: the next tick index's draw, with a drawn
/// panic past the budget dropped.
fn tick_fault(shared: &Shared) -> Option<(TickFault, Duration)> {
    let chaos = shared.cfg.chaos.as_ref()?;
    let tick = shared.chaos_ticks.fetch_add(1, Ordering::AcqRel);
    let fault = chaos.draw(tick)?;
    if fault == TickFault::Panic && !chaos.spend_panic(&shared.chaos_panics) {
        return None;
    }
    Some((fault, chaos.stall))
}

/// Serves one tick and returns each job's per-slot results: chaos
/// faults, deadline fast-fail, breaker admission and the coalesced
/// estimate. A chaos `Panic` unwinds out of here into
/// [`run_tick_caught`] on the requesting session's thread: a leader's
/// gathered jobs drop unanswered (each waiting session degrades its own
/// slots to a typed hard failure) and the lease moves on as after any
/// tick; an inline caller degrades its one job the same way.
pub(crate) fn run_tick(shared: &Shared, jobs: &[TickJob<'_>]) -> Vec<SlotResults> {
    let _sp = cardbench_obs::span_with("coalesced_batch", "serve", || {
        format!("{} jobs", jobs.len())
    });
    let fault = tick_fault(shared);
    if let Some((TickFault::Panic, _)) = fault {
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
    if let Some((TickFault::Slow, stall)) = fault {
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
            if let Some((TickFault::Storm, stall)) = fault {
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
                    budget: stall,
                });
                let per_slot = stall / (total_slots.max(1) as u32);
                live.iter()
                    .map(|&i| vec![(timed_out.clone(), per_slot); jobs[i].0.len()])
                    .collect()
            } else {
                // A lone job's estimate may take the time left before its
                // deadline; a multi-job tick has no budget, so one tight
                // deadline never perturbs other sessions' outcomes.
                let timeout = match live[..] {
                    [i] => deadline_budget(None, jobs[i].1, now),
                    _ => None,
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
    use cardbench_estimators::chaos::ChaosConfig;
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

    fn job(subs: &[SubPlanQuery]) -> (EstimateJob, mpsc::Receiver<Reply>) {
        let (reply, rx) = mpsc::channel();
        let job = EstimateJob {
            subs: subs.to_vec(),
            deadline: None,
            reply,
            ticket: 0,
        };
        (job, rx)
    }

    /// A session that vanishes with its job queued (its reply receiver
    /// is already gone at hand-off) must not strand the lease: it passes
    /// to the next live owner, and frees once nothing is queued.
    #[test]
    fn dropped_reply_receiver_never_strands_the_lease() {
        let queue = JobQueue::new(4);
        let stale = Duration::from_secs(5);
        let (leader, _leader_rx) = job(&[]);
        let Some(Submitted::Lead(gen)) = queue.submit(leader, stale) else {
            panic!("a free lease goes to the first request");
        };
        let (dead, dead_rx) = job(&[]);
        drop(dead_rx);
        let (live, live_rx) = job(&[]);
        for j in [dead, live] {
            assert!(matches!(queue.submit(j, stale), Some(Submitted::Queued(_))));
        }
        assert!(queue.tick_age().is_some());

        queue.finish(gen);
        assert!(matches!(live_rx.try_recv(), Ok(Reply::Lead(g)) if g == gen));
        assert_eq!(queue.len(), 0);
        assert!(queue.tick_age().is_some(), "the lease passed, never freed");
        queue.finish(gen);
        assert!(
            queue.tick_age().is_none(),
            "nothing queued: the lease frees"
        );
        assert_eq!(queue.takeovers(), 0);
    }

    /// A queued owner takes over a tick that outlived `stale_after`;
    /// the superseded leader then hands off nothing.
    #[test]
    fn stale_tick_is_taken_over_by_a_queued_owner() {
        let queue = JobQueue::new(4);
        let stale = Duration::from_millis(5);
        let (leader, _leader_rx) = job(&[]);
        let Some(Submitted::Lead(old)) = queue.submit(leader, stale) else {
            panic!("a free lease goes to the first request");
        };
        let (waiter, _waiter_rx) = job(&[]);
        let Some(Submitted::Queued(ticket)) = queue.submit(waiter, stale) else {
            panic!("a held lease queues the job");
        };
        assert!(matches!(queue.withdraw(ticket, stale), Err(left) if left <= stale));
        std::thread::sleep(2 * stale);
        let gen = queue
            .withdraw(ticket, stale)
            .expect("stale tick taken over");
        assert_ne!(gen, old);
        assert_eq!((queue.len(), queue.takeovers()), (0, 1));
        assert_eq!(queue.withdraw(ticket, stale), Err(Duration::MAX));

        queue.finish(old);
        assert!(queue.tick_age().is_some(), "a superseded leader keeps out");
        queue.finish(gen);
        assert!(queue.tick_age().is_none());
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

    fn chaos_shared(chaos: ChaosConfig<TickFault>) -> Arc<Shared> {
        test_shared(ServeConfig {
            chaos: Some(chaos),
            ..ServeConfig::default()
        })
    }

    const TICK_FAULTS: [TickFault; 3] = [TickFault::Panic, TickFault::Slow, TickFault::Storm];

    #[test]
    fn same_seed_same_schedule() {
        let schedule = |seed| {
            let shared = chaos_shared(ChaosConfig {
                seed,
                rate: 0.3,
                classes: TICK_FAULTS.to_vec(),
                ..ChaosConfig::default()
            });
            (0..256)
                .map(|_| tick_fault(&shared).map(|(f, _)| f))
                .collect::<Vec<_>>()
        };
        let (a, b, c) = (schedule(7), schedule(7), schedule(8));
        assert_eq!(a, b, "same seed must fault identically");
        assert_ne!(a, c, "different seed must fault differently");
        assert!(a.contains(&Some(TickFault::Storm)));
    }

    #[test]
    fn panic_budget_is_enforced() {
        let shared = chaos_shared(ChaosConfig {
            seed: 11,
            rate: 0.5,
            classes: vec![TickFault::Panic],
            max_panics: Some(2),
            ..ChaosConfig::default()
        });
        let panics = (0..256).filter(|_| tick_fault(&shared).is_some()).count();
        assert_eq!(panics, 2);
        assert_eq!(shared.chaos_panics.load(Ordering::Acquire), 2);
    }

    #[test]
    fn zero_rates_never_fault() {
        let shared = chaos_shared(ChaosConfig {
            seed: 42,
            classes: TICK_FAULTS.to_vec(),
            ..ChaosConfig::default()
        });
        assert!((0..1024).all(|_| tick_fault(&shared).is_none()));
    }

    /// Closing the queue hands unserved jobs back and fails later
    /// submissions, so teardown can fast-fail everything typed.
    #[test]
    fn close_returns_unserved_jobs_and_rejects_submissions() {
        let queue = JobQueue::new(4);
        let stale = Duration::from_secs(5);
        for expect_lead in [true, false] {
            let (j, _rx) = job(&[]);
            let got = queue.submit(j, stale);
            assert_eq!(matches!(got, Some(Submitted::Lead(_))), expect_lead);
        }
        assert_eq!(queue.len(), 1);
        let unserved = queue.close();
        assert_eq!(unserved.len(), 1);
        let (j, _rx) = job(&[]);
        assert!(queue.submit(j, stale).is_none());
    }
}
