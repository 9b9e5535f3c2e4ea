//! Serving sweep: sustained throughput and tail latency of the
//! concurrent estimation service at 1/4/16/64 sessions, cross-session
//! coalescing vs per-session-sequential estimation, on the STATS-CEB
//! analog workload with batched ML estimators.
//!
//! Two phases per configuration, per the load-generation split the
//! serving literature settled on:
//!
//! 1. **Closed loop** — every session replays the workload back-to-back;
//!    completed queries / wall time is the sustained QPS. Closed loops
//!    understate tail latency (clients slow down with the server), so
//!    latency does not come from this phase.
//! 2. **Open loop** — deterministic Poisson-free arrivals at 0.7× the
//!    measured sustained rate (`t_i = i / rate`, round-robin across
//!    sessions); per-query latency is measured from the *scheduled*
//!    arrival, so queueing delay counts (no coordinated omission).
//!    p50/p95/p99 come from exact sample percentiles.
//!
//! Smoke mode is tiny data, one estimator, 4 sessions.

use std::sync::Arc;

use cardbench_support::json::Json;

use cardbench_estimators::lw::TrainingSet;
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_harness::{build_estimator, EstimatorSettings};
use cardbench_metrics::percentile;
use cardbench_serve::{run_load, LoadConfig, LoadReport, ServeConfig};
use cardbench_workload::training_workload;

use super::write_summary;
use crate::serving::{closed_loop, guard, Fixture};

/// One measured (sessions, mode) point.
struct RunPoint {
    sessions: usize,
    mode: &'static str,
    closed: LoadReport,
    arrival_qps: f64,
    open: LoadReport,
}

/// Closed-loop saturation then open-loop at 0.7× the sustained rate.
fn run_point(
    fx: &Fixture,
    est: &Arc<dyn CardEst>,
    sessions: usize,
    sequential: bool,
) -> Result<RunPoint, String> {
    let mode = if sequential {
        "sequential"
    } else {
        "coalesced"
    };
    // Replays sized so every phase issues at least ~1k queries: phases
    // shorter than ~100ms are scheduler-jitter measurements, not
    // throughput measurements.
    let replays = 1024usize.div_ceil(sessions * fx.wl.queries.len()).max(1);
    let cfg = closed_loop(sessions, replays);
    let server = fx.serve(
        Arc::clone(est),
        ServeConfig {
            max_sessions: sessions,
            sequential,
            ..ServeConfig::default()
        },
    );
    let closed = run_load(&server, &fx.wl, &cfg);
    guard(&format!("{mode}/{sessions} closed"), &closed)?;
    let arrival_qps = (closed.qps * 0.7).max(1.0);
    let open = run_load(
        &server,
        &fx.wl,
        &LoadConfig {
            arrival_qps: Some(arrival_qps),
            ..cfg
        },
    );
    guard(&format!("{mode}/{sessions} open"), &open)?;
    Ok(RunPoint {
        sessions,
        mode,
        closed,
        arrival_qps,
        open,
    })
}

pub fn run(smoke: bool) -> Result<(), String> {
    let session_counts: &[usize] = if smoke { &[4] } else { &[1, 4, 16, 64] };
    let fx = &Fixture::for_sweep(smoke, if smoke { [4, 8, 3] } else { [12, 24, 8] });
    let settings = EstimatorSettings::fast(3);
    let (train_qs, train_cards) = training_workload(&fx.db, 120, 5, 3 ^ 0x7a);
    let train = TrainingSet {
        queries: train_qs,
        cards: train_cards,
    };

    // The batched-estimator family: coalescing has leverage exactly when
    // `estimate_batch` amortizes real per-call work, so the spread runs
    // from the heaviest batched models (autoregressive UAE/NeuroCard^E,
    // where dedup + batching shine) down to MSCN and the SPN family.
    let ml_kinds: &[EstimatorKind] = if smoke {
        &[EstimatorKind::Mscn]
    } else {
        &[
            EstimatorKind::Mscn,
            EstimatorKind::Uae,
            EstimatorKind::NeuroCardE,
            EstimatorKind::DeepDb,
        ]
    };

    let mut method_entries: Vec<Json> = Vec::new();
    for &kind in ml_kinds {
        let built = build_estimator(kind, &fx.db, &train, &settings);
        let est: Arc<dyn CardEst> = Arc::from(built.est);
        ensure!(
            est.batch_leverage(),
            "{}: serve sweep expects a batched estimator",
            kind.name()
        );
        // Both modes then compete on estimation + planning alone.
        fx.warm_up(Arc::clone(&est))?;

        let mut points: Vec<RunPoint> = Vec::new();
        for &sessions in session_counts {
            for sequential in [true, false] {
                points.push(run_point(fx, &est, sessions, sequential)?);
            }
        }

        let runs: Vec<Json> = points
            .iter()
            .map(|p| {
                let lat = &p.open.latencies;
                let (p50, p95, p99) = (
                    percentile(lat, 0.50),
                    percentile(lat, 0.95),
                    percentile(lat, 0.99),
                );
                println!(
                    "{:>8} {:>10} x{:<2}: closed {:>7.1} qps | open @{:>7.1} qps  p50 {:.4}s  p95 {:.4}s  p99 {:.4}s",
                    kind.name(),
                    p.mode,
                    p.sessions,
                    p.closed.qps,
                    p.arrival_qps,
                    p50,
                    p95,
                    p99,
                );
                Json::object([
                    ("sessions", Json::Number(p.sessions as f64)),
                    ("mode", Json::String(p.mode.to_string())),
                    ("closed_loop_qps", Json::Number(p.closed.qps)),
                    ("open_loop_arrival_qps", Json::Number(p.arrival_qps)),
                    ("open_loop_qps", Json::Number(p.open.qps)),
                    ("open_loop_completed", Json::Number(p.open.completed as f64)),
                    ("p50_secs", Json::Number(p50)),
                    ("p95_secs", Json::Number(p95)),
                    ("p99_secs", Json::Number(p99)),
                ])
            })
            .collect();

        // Headline ratio per session count: coalesced / sequential
        // sustained QPS.
        let speedups: Vec<Json> = session_counts
            .iter()
            .map(|&n| {
                let qps_of = |mode: &str| {
                    points
                        .iter()
                        .find(|p| p.sessions == n && p.mode == mode)
                        .map(|p| p.closed.qps)
                        .unwrap_or(f64::NAN)
                };
                let ratio = qps_of("coalesced") / qps_of("sequential");
                println!(
                    "{:>8} sessions={n:<2}: coalesced/sequential sustained QPS = {ratio:.2}x",
                    kind.name()
                );
                Json::object([
                    ("sessions", Json::Number(n as f64)),
                    ("coalesced_over_sequential_qps", Json::Number(ratio)),
                ])
            })
            .collect();

        method_entries.push(Json::object([
            ("method", Json::String(kind.name().to_string())),
            ("runs", Json::Array(runs)),
            ("throughput_speedup", Json::Array(speedups)),
        ]));
    }

    let summary = Json::object([
        ("bench", Json::String("serve".to_string())),
        (
            "setup",
            Json::String(format!(
                "STATS-CEB analog workload ({} queries, ≤8 tables) on STATS data at the \
                 default 0.02 benchmark scale; truth cache and engine memos warmed before \
                 timing; closed loop = sustained QPS, open loop at 0.7× sustained rate with \
                 deterministic arrivals = tail latency measured from scheduled arrival",
                fx.wl.queries.len()
            )),
        ),
        (
            "cores",
            Json::Number(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("methods", Json::Array(method_entries)),
    ]);
    write_summary(smoke, "serve", summary);
    Ok(())
}
