//! `serve_mix`: the estimation service under a closed loop of two
//! sessions, one per core. One `serve::Server` with the default
//! `ServeConfig` serves MSCN, feedback off; session `s` replays the 146
//! queries three times per pass, rotated by 73·`s`, and an op is one
//! `Session::plan`. Closed loop, because a caller waits for its plan
//! before it sends the next query. Chosen for scale-out serving (ROADMAP
//! item 4): the queue, the coalesce window, dedup and the breaker sit on
//! the path, and nothing executes.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cardbench_engine::{CostModel, Database, TrueCardService};
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_harness::PlannedQuery;
use cardbench_query::SubPlanQuery;
use cardbench_serve::{ServeConfig, ServeError, Server};
use cardbench_workload::WorkloadQuery;

use super::{
    bit_equal, ceb_queries, config, hit_ratio, ratio, shuffle, stats_data, timed,
    topology_cached_share, train, training_set, Layers, Pass, SetupClock, Workload,
};
use crate::reduce::{median, Digest};
use crate::trace::{Profile, Tracer, OP};

/// Load threads: `nproc` of the reference host.
const SESSIONS: usize = 2;
/// Replays of the query list per session and pass.
const REPLAYS: usize = 3;
/// Session `s` starts `ROTATION`·`s` queries into the list, so the two
/// sessions are half a list apart and rarely ask for the same sub-plan
/// in one tick.
const ROTATION: usize = 73;

/// Keeps this thread's vCPU from halting until `stop` is set, at idle
/// priority, so that it runs only while nothing else wants the core.
///
/// A `Session::plan` blocks two or three times for a few hundred
/// microseconds, and a guest core that halts that briefly wakes up fast
/// or slowly depending on the hypervisor's halt-polling state, which
/// feeds back on itself: on the reference host the same binary planned
/// 3 900 ops/s in three runs and 5 500 to 6 800 in the next seven.
/// With the cores kept awake a wake-up is a context switch in the guest
/// and the six runs after that gave 3 975 to 4 275. Where the policy
/// cannot be set the thread returns at once and the cores halt as usual.
fn keep_core_awake(stop: &AtomicBool) {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct SchedParam {
            sched_priority: i32,
        }
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        }
        const SCHED_IDLE: i32 = 5;
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: plain syscall wrapper; `param` outlives the call and
        // pid 0 names the calling thread.
        if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } == 0 {
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = stop;
}

const PLAN: &str = "serve.session_plan";
const BATCH: &str = "estimators.mscn.estimate_batch";

/// MSCN as the server sees it: every call forwards, is counted, and —
/// while the tracer is on — is a span on the drainer's thread.
struct Observed {
    inner: Box<dyn CardEst>,
    tracer: &'static Tracer,
    /// `estimate_batch` calls and the sub-plans they carried. Relaxed:
    /// read between passes only.
    batches: AtomicU64,
    batched_subplans: AtomicU64,
}

impl CardEst for Observed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn estimate(&self, db: &Database, sub: &SubPlanQuery) -> f64 {
        self.inner.estimate(db, sub)
    }

    fn estimate_batch(&self, db: &Database, subs: &[SubPlanQuery]) -> Vec<f64> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_subplans
            .fetch_add(subs.len() as u64, Ordering::Relaxed);
        let _s = self.tracer.span(BATCH);
        self.inner.estimate_batch(db, subs)
    }

    fn batch_leverage(&self) -> bool {
        self.inner.batch_leverage()
    }

    fn model_size_bytes(&self) -> usize {
        self.inner.model_size_bytes()
    }
}

pub struct ServeMix {
    tracer: &'static Tracer,
    db: Arc<Database>,
    truth: Arc<TrueCardService>,
    est: Arc<Observed>,
    /// `None` only while the value is being dropped.
    server: Option<Server>,
    queries: Vec<WorkloadQuery>,
    /// Query indices per session, in replay order.
    ops: Vec<Vec<usize>>,
    /// `sub_est_cards` per query from the single-session sequential
    /// path, filled by the first pass that makes the full checks.
    expected: Option<Vec<Vec<f64>>>,
}

/// What the checks and the counters need from one planned query.
struct Planned {
    took: Duration,
    outcome: Result<PlannedQuery, ServeError>,
}

impl ServeMix {
    fn start(&self, sequential: bool) -> Server {
        Server::start(
            Arc::clone(&self.db),
            Arc::clone(&self.truth),
            Arc::clone(&self.est) as Arc<dyn CardEst>,
            CostModel::default(),
            ServeConfig {
                sequential,
                ..ServeConfig::default()
            },
        )
    }

    /// Plans every op of every session on one session of a
    /// `sequential: true` server: the no-coalescer floor. Returns the
    /// wall time per op, session-major.
    fn sequential_pass(&self) -> Vec<Planned> {
        let server = self.start(true);
        let mut session = server.session().expect("one session is admitted");
        let planned = self
            .ops
            .iter()
            .flatten()
            .map(|&q| {
                let t0 = Instant::now();
                let outcome = session.plan(&self.queries[q]);
                Planned {
                    took: t0.elapsed(),
                    outcome,
                }
            })
            .collect();
        drop(session);
        server.shutdown();
        planned
    }

    /// One closed-loop pass; returns the pass wall time and every op's
    /// outcome, session-major.
    fn closed_loop(&self) -> (Duration, Vec<Planned>) {
        let server = self.server.as_ref().expect("running");
        let barrier = Barrier::new(SESSIONS + 1);
        let done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..SESSIONS {
                scope.spawn(|| keep_core_awake(&done));
            }
            let handles: Vec<_> = self
                .ops
                .iter()
                .enumerate()
                .map(|(s, list)| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut session =
                            server.session().expect("one session per core is admitted");
                        barrier.wait();
                        list.iter()
                            .enumerate()
                            .map(|(j, &q)| {
                                let t0 = Instant::now();
                                let outcome = {
                                    let _op = self.tracer.op(OP, (s * list.len() + j) as u32);
                                    let _s = self.tracer.span(PLAN);
                                    session.plan(&self.queries[q])
                                };
                                Planned {
                                    took: t0.elapsed(),
                                    outcome,
                                }
                            })
                            .collect::<Vec<Planned>>()
                    })
                })
                .collect();
            barrier.wait();
            let start = Instant::now();
            let planned: Vec<Planned> = handles
                .into_iter()
                .flat_map(|h| h.join().expect("a session thread panicked"))
                .collect();
            let wall = start.elapsed();
            done.store(true, Ordering::Relaxed);
            (wall, planned)
        })
    }

    fn query_of(&self, op: usize) -> usize {
        let per_session = self.ops[0].len();
        self.ops[op / per_session][op % per_session]
    }
}

impl Workload for ServeMix {
    const NAME: &'static str = "serve_mix";
    const THREADS: usize = SESSIONS;
    const OPS: usize = 876;
    const PASSES: usize = 45;

    fn setup(seed: u64, clock: &mut SetupClock, tracer: &'static Tracer) -> ServeMix {
        let cfg = config();
        let db = Database::new(stats_data(&cfg, clock));
        let wl = ceb_queries(&db, &cfg, clock);
        let set = training_set(&db, &cfg, clock);
        let est = Arc::new(Observed {
            inner: train(EstimatorKind::Mscn, &db, &set, &cfg, clock),
            tracer,
            batches: AtomicU64::new(0),
            batched_subplans: AtomicU64::new(0),
        });
        let mut order: Vec<usize> = (0..wl.queries.len()).collect();
        shuffle(&mut order, seed);
        let ops = (0..SESSIONS)
            .map(|s| {
                let mut list = order.clone();
                list.rotate_left(ROTATION * s % order.len());
                list.repeat(REPLAYS)
            })
            .collect();
        let mut mix = ServeMix {
            tracer,
            db: Arc::new(db),
            truth: Arc::new(TrueCardService::new()),
            est,
            server: None,
            queries: wl.queries,
            ops,
            expected: None,
        };
        let server = timed(&mut clock.serve_start_s, || mix.start(false));
        mix.server = Some(server);
        mix
    }

    fn ops(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for (s, list) in self.ops.iter().enumerate() {
            d.word(s as u64);
            for &q in list {
                d.word(self.queries[q].query.canonical_hash());
            }
        }
        d.0
    }

    fn pass(&mut self, full_checks: bool) -> Pass {
        if full_checks && self.expected.is_none() {
            let mut expected = vec![Vec::new(); self.queries.len()];
            for (op, planned) in self.sequential_pass().into_iter().enumerate() {
                let planned = planned.outcome.expect("the sequential path plans");
                expected[self.query_of(op)] = planned.sub_est_cards;
            }
            self.expected = Some(expected);
        }
        let (wall, planned) = self.closed_loop();
        let mut pass = Pass::new(planned.len());
        pass.wall = wall;
        for (op, Planned { took, outcome }) in planned.into_iter().enumerate() {
            let check = match outcome {
                Err(refused) => Err(format!("refused: {refused}")),
                Ok(p) if p.plan.is_err() => Err(format!("Q{} not planned", p.id)),
                Ok(p) if !p.est_failures.is_empty() || p.fallback_subplans > 0 => Err(format!(
                    "Q{}: {} estimate faults, {} fallbacks",
                    p.id,
                    p.est_failures.len(),
                    p.fallback_subplans
                )),
                Ok(p) => match &self.expected {
                    Some(expected)
                        if full_checks
                            && !bit_equal(&p.sub_est_cards, &expected[self.query_of(op)]) =>
                    {
                        Err(format!("Q{}: differs from the sequential path", p.id))
                    }
                    _ => Ok(()),
                },
            };
            pass.record(op, took, check);
        }
        pass
    }

    fn layers(&mut self, profile: &Profile, out: &mut Layers) {
        let tr = self.tracer;
        tr.set_on(false);
        // Counters of one untraced closed-loop pass.
        let counters = |mix: &ServeMix| {
            (
                mix.db.topology_cache_stats(),
                mix.truth.cache_stats(),
                mix.est.batches.load(Ordering::Relaxed),
                mix.est.batched_subplans.load(Ordering::Relaxed),
            )
        };
        let before = counters(self);
        let (_, planned) = self.closed_loop();
        let after = counters(self);
        let stats = self.server.as_ref().expect("running").stats();
        // The same ops on the sequential path, three passes.
        let floor: Vec<Vec<f64>> = (0..3)
            .map(|_| {
                self.sequential_pass()
                    .iter()
                    .map(|p| p.took.as_secs_f64() * 1e6)
                    .collect()
            })
            .collect();
        tr.set_on(true);

        let (mut rejected, mut submitted) = (0u64, 0u64);
        let (mut failures, mut fallbacks, mut clamped) = (0u64, 0u64, 0u64);
        for p in &planned {
            match &p.outcome {
                Err(_) => rejected += 1,
                Ok(p) => {
                    submitted += p.subplans as u64;
                    failures += p.est_failures.len() as u64;
                    fallbacks += p.fallback_subplans;
                    clamped += p.clamped_subplans;
                }
            }
        }
        let batches = (after.2 - before.2) as f64;
        let unique = (after.3 - before.3) as f64;

        let root = profile.busy_s(OP);
        out.put(
            "engine.topology_hit_ratio",
            topology_cached_share(before.0, after.0, planned.len()),
        );
        out.put("engine.truecard_hit_ratio", hit_ratio(before.1, after.1));
        out.put(
            "estimators.mscn.subplans_per_s",
            ratio(unique, profile.busy_s(BATCH)),
        );
        out.put("estimators.mscn.batch_us_p50", profile.call_p50_us(BATCH));
        out.put(
            "estimators.mscn.model_bytes",
            self.est.model_size_bytes() as f64,
        );
        out.put("estimators.share", ratio(profile.busy_s(BATCH), root));
        out.put(
            "estimators.max_kind_share",
            ratio(profile.busy_s(BATCH), root),
        );
        out.put("harness.est_failures", failures as f64);
        out.put("harness.fallback_subplans", fallbacks as f64);
        out.put("harness.clamped_subplans", clamped as f64);
        let per_op: Vec<f64> = (0..floor[0].len())
            .map(|op| median(&floor.iter().map(|pass| pass[op]).collect::<Vec<f64>>()))
            .collect();
        out.put("serve.plan_us_p50_sequential", median(&per_op));
        out.put(
            "serve.jobs_per_batch",
            ratio((planned.len() as u64 - rejected) as f64, batches),
        );
        out.put(
            "serve.dedup_ratio",
            1.0 - ratio(unique, submitted as f64).min(1.0),
        );
        out.put("serve.rejected", rejected as f64);
        out.put("serve.retries", stats.retries as f64);
        out.put("serve.breaker_shorted", stats.breaker.shorted_slots as f64);
        out.put("serve.watchdog_restarts", stats.watchdog_restarts as f64);
    }
}

impl Drop for ServeMix {
    fn drop(&mut self) {
        // Joins the drainer and the watchdog, so no thread outlives a
        // set-up repetition.
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
    }
}
