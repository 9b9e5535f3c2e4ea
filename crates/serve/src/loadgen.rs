//! Deterministic load generation against a [`Server`]: closed-loop
//! (back-to-back, measures sustained throughput) and open-loop (fixed
//! arrival schedule, measures the latency a client actually sees).
//!
//! The open-loop generator is deliberately **Poisson-free**: query `i`
//! of the run arrives at exactly `start + i / rate`, round-robin across
//! sessions, so two runs at the same rate issue bit-identical request
//! streams and tail-latency differences are attributable to the service,
//! not to sampled arrival noise. Latency is measured from the
//! *scheduled* arrival to completion — when the service falls behind,
//! queueing delay counts against it (the coordinated-omission-safe
//! convention). A closed-loop driver would hide exactly that delay by
//! slowing the clients down with the server, which is why sustained QPS
//! comes from the closed loop and tail latency from the open loop.
//!
//! For the self-healing layer the report additionally classifies each
//! completed query's latency by its *worst* fault outcome — clean,
//! **breaker-shorted** (skipped the doomed call), or
//! **failed-then-degraded** (paid it) — which is the comparison the
//! chaos bench exists to make.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use cardbench_harness::PlannedQuery;
use cardbench_workload::Workload;

use crate::{ServeError, Server};

/// One load phase's shape.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent sessions (each is one thread with one [`crate::Session`]).
    pub sessions: usize,
    /// Open-loop arrival rate in queries/second over the whole run;
    /// `None` runs closed-loop (every session issues back-to-back).
    pub arrival_qps: Option<f64>,
    /// Workload replays per session.
    pub replays: usize,
    /// Per-request end-to-end deadline, measured from the scheduled
    /// arrival (open loop) or issue time (closed loop); `None` sends
    /// undeadlined requests.
    pub deadline: Option<Duration>,
}

/// How a completed query's sub-plan estimation fared, worst case wins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LatencyClass {
    Clean,
    Shorted,
    Degraded,
}

/// What a load phase produced.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Queries that planned to completion.
    pub completed: u64,
    /// Queries whose plan failed (typed bind/truth failure).
    pub failed: u64,
    /// Queries rejected by admission control (typed `ServeError`).
    pub rejected: u64,
    /// Of `rejected`, those rejected for a blown deadline
    /// (`ServeError::DeadlineExceeded`, preflight) — they consumed no
    /// estimator slot.
    pub deadline_rejected: u64,
    /// Wall time of the whole phase.
    pub wall: Duration,
    /// Completed queries per wall-clock second.
    pub qps: f64,
    /// Per-query latency samples in seconds: from *scheduled arrival*
    /// (open loop) or call start (closed loop) to completion.
    pub latencies: Vec<f64>,
    /// Latencies of completed queries with no sub-plan fault at all.
    pub clean_latencies: Vec<f64>,
    /// Latencies of completed queries whose worst fault was
    /// breaker-shorted (`EstimateError::Shorted` / `DeadlineExceeded`:
    /// the slot never paid the doomed call).
    pub shorted_latencies: Vec<f64>,
    /// Latencies of completed queries that hard-failed the real call
    /// first (`Panicked`/`TimedOut`) and then degraded to the fallback.
    pub degraded_latencies: Vec<f64>,
    /// Typed per-sub-plan estimate failures across all queries.
    pub est_failures: u64,
    /// Faults that escaped typed attribution (arity mismatch or a
    /// non-finite injected estimate with no failure record). Must be 0:
    /// the service's whole fault story is that nothing fails silently.
    pub unattributed: u64,
}

/// Sub-plan slots of one planned query that lack typed attribution.
fn unattributed(p: &PlannedQuery) -> u64 {
    let mut n = 0u64;
    if p.sub_est_cards.len() != p.subplans {
        n += 1;
    }
    // The clamp sanitizes every injected estimate; a non-finite value
    // surviving to the optimizer means a fault bypassed the taxonomy.
    n + p.sub_est_cards.iter().filter(|v| !v.is_finite()).count() as u64
}

/// Classifies a completed query by its worst sub-plan fault:
/// failed-then-degraded (paid the doomed call's latency) dominates
/// breaker-shorted (skipped it), which dominates clean.
fn latency_class(p: &PlannedQuery) -> LatencyClass {
    let mut class = LatencyClass::Clean;
    for f in &p.est_failures {
        match f.error.kind() {
            "shorted" | "deadline_exceeded" if class == LatencyClass::Clean => {
                class = LatencyClass::Shorted;
            }
            "panicked" | "timed_out" => return LatencyClass::Degraded,
            _ => {}
        }
    }
    class
}

impl LoadReport {
    /// Merges one joined session thread's report. A thread that
    /// panicked counts all its `per_session` queries as unattributed,
    /// so a load phase that lost a session can never pass as clean.
    fn absorb(&mut self, joined: std::thread::Result<LoadReport>, per_session: u64) {
        let r = joined.unwrap_or_else(|_| LoadReport {
            unattributed: per_session,
            ..LoadReport::default()
        });
        self.completed += r.completed;
        self.failed += r.failed;
        self.rejected += r.rejected;
        self.deadline_rejected += r.deadline_rejected;
        self.est_failures += r.est_failures;
        self.unattributed += r.unattributed;
        self.latencies.extend(r.latencies);
        self.clean_latencies.extend(r.clean_latencies);
        self.shorted_latencies.extend(r.shorted_latencies);
        self.degraded_latencies.extend(r.degraded_latencies);
    }
}

/// Runs one load phase: `cfg.sessions` threads each open a session and,
/// once all are open (so the phase's route is that of its session
/// count), replay `wl` `cfg.replays` times, closed- or open-loop.
/// Returns the merged report (latencies unsorted, in no particular
/// order), or an error before any thread starts when the open-loop
/// arrival rate is not a positive finite number.
pub fn run_load(
    server: &Arc<Server>,
    wl: &Workload,
    cfg: &LoadConfig,
) -> Result<LoadReport, String> {
    if let Some(rate) = cfg.arrival_qps {
        if !(rate.is_finite() && rate > 0.0) {
            return Err(format!(
                "open-loop arrival rate must be positive and finite, got {rate}"
            ));
        }
    }
    let sessions = cfg.sessions.max(1);
    let per_session = wl.queries.len() * cfg.replays.max(1);
    let t0 = Instant::now();
    // Shared t=0 for the arrival schedule; a small lead so no session
    // starts behind schedule before it even spawns.
    let start = t0 + Duration::from_millis(20);
    let opened = Arc::new(Barrier::new(sessions));
    let handles: Vec<_> = (0..sessions)
        .map(|s| {
            let server = Arc::clone(server);
            let wl = wl.clone();
            let cfg = cfg.clone();
            let opened = Arc::clone(&opened);
            std::thread::spawn(move || {
                let mut report = LoadReport::default();
                let session = server.session();
                opened.wait();
                let mut session = match session {
                    Ok(session) => session,
                    Err(_) => {
                        report.rejected = per_session as u64;
                        return report;
                    }
                };
                for k in 0..per_session {
                    let wq = &wl.queries[k % wl.queries.len()];
                    // Global arrival index: query k of session s is the
                    // (k * sessions + s)-th arrival of the run.
                    let scheduled = cfg.arrival_qps.map(|rate| {
                        start + Duration::from_secs_f64((k * sessions + s) as f64 / rate)
                    });
                    if let Some(at) = scheduled {
                        let now = Instant::now();
                        if at > now {
                            std::thread::sleep(at - now);
                        }
                    }
                    let issued = Instant::now();
                    let t0 = scheduled.unwrap_or(issued);
                    let outcome = match cfg.deadline {
                        Some(budget) => session.plan_with_deadline(wq, t0 + budget),
                        None => session.plan(wq),
                    };
                    match outcome {
                        Ok(p) => {
                            let latency = (Instant::now() - t0).as_secs_f64();
                            report.latencies.push(latency);
                            report.est_failures += p.est_failures.len() as u64;
                            report.unattributed += unattributed(&p);
                            if p.plan.is_ok() {
                                report.completed += 1;
                                match latency_class(&p) {
                                    LatencyClass::Clean => report.clean_latencies.push(latency),
                                    LatencyClass::Shorted => report.shorted_latencies.push(latency),
                                    LatencyClass::Degraded => {
                                        report.degraded_latencies.push(latency);
                                    }
                                }
                            } else {
                                report.failed += 1;
                            }
                        }
                        Err(e) => {
                            if matches!(e, ServeError::DeadlineExceeded { .. }) {
                                report.deadline_rejected += 1;
                            }
                            report.rejected += 1;
                        }
                    }
                }
                report
            })
        })
        .collect();
    let mut merged = LoadReport::default();
    for h in handles {
        merged.absorb(h.join(), per_session as u64);
    }
    merged.wall = t0.elapsed();
    merged.qps = if merged.wall.is_zero() {
        0.0
    } else {
        merged.completed as f64 / merged.wall.as_secs_f64()
    };
    Ok(merged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ServeConfig;
    use cardbench_datagen::{stats_catalog, StatsConfig};
    use cardbench_engine::{CostModel, Database, TrueCardService};
    use cardbench_estimators::postgres::PostgresEst;

    /// A zero, negative or non-finite arrival rate would panic every
    /// session thread at its first query; it is refused up front.
    #[test]
    fn bad_arrival_rate_is_rejected_before_any_session_starts() {
        let db = Arc::new(Database::new(stats_catalog(&StatsConfig::tiny(3))));
        let est = Arc::new(PostgresEst::fit(&db));
        let server = Arc::new(Server::start(
            db,
            Arc::new(TrueCardService::new()),
            est,
            CostModel::default(),
            ServeConfig::default(),
        ));
        let wl = Workload {
            name: "empty".to_string(),
            queries: Vec::new(),
            template_count: 0,
        };
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = LoadConfig {
                sessions: 2,
                arrival_qps: Some(rate),
                replays: 1,
                deadline: None,
            };
            let err = run_load(&server, &wl, &cfg).expect_err("rate refused");
            assert!(err.contains("arrival rate"), "{err}");
        }
        assert_eq!(server.live_sessions(), 0, "no session was opened");
    }

    /// A session thread that panicked counts every query it owed as
    /// unattributed instead of vanishing from the merged report.
    #[test]
    fn panicked_session_counts_as_unattributed() {
        let mut merged = LoadReport::default();
        merged.absorb(
            Ok(LoadReport {
                completed: 3,
                ..LoadReport::default()
            }),
            3,
        );
        let died = std::thread::spawn(|| -> LoadReport {
            std::panic::resume_unwind(Box::new("session thread died"))
        })
        .join();
        assert!(died.is_err());
        merged.absorb(died, 3);
        assert_eq!((merged.completed, merged.unattributed), (3, 3));
    }
}
