//! Service-level chaos sweep: goodput and tail latency of the
//! estimation service under injected faults, and what each self-healing
//! layer buys.
//!
//! Five phases, each a fresh server on the same workload:
//!
//! 1. **baseline** — no chaos; the breaker (on by default) must stay
//!    closed and observation-only.
//! 2. **storm, breaker off** — a permanent estimator fault storm: every
//!    admitted call pays the storm stall before hard-faulting, so every
//!    query is *failed-then-degraded* (the fallback answers, but only
//!    after the doomed call's latency is paid).
//! 3. **storm, breaker on** — the same storm behind the circuit
//!    breaker: after `min_samples` slots the breaker opens and slots are
//!    *breaker-shorted* to the fallback without the doomed call. Every
//!    [`PROBE_COOLDOWN`] it half-opens, and the probe fails and re-opens
//!    it. After the phase the breaker still reads open (it half-opens
//!    only at the next admission), so the live endpoint answers
//!    `/healthz` 200 and `/readyz` 503. The headline comparison is phase 3's shorted p99
//!    vs phase 2's degraded p99.
//! 4. **deadline under slow ticks** — chaos-slowed ticks against a
//!    per-request deadline: slots whose deadline expired in the queue
//!    fast-fail typed (`deadline_exceeded`) instead of running doomed
//!    estimates.
//! 5. **tick panics** — the chaos injector panics coalesced ticks
//!    (panic budget bounded); the queries in a panicked tick degrade
//!    typed, goodput survives, and a plan after the phase is clean.
//!
//! Every phase asserts the service's core fault story: zero
//! unattributed faults, zero hangs, zero failed plans.

use std::sync::Arc;
use std::time::Duration;

use cardbench_support::json::Json;

use cardbench_estimators::chaos::ChaosConfig;
use cardbench_metrics::percentile;
use cardbench_serve::{
    run_load, BreakerConfig, BreakerState, LoadConfig, LoadReport, ServeConfig, ServeStats, Server,
    TickFault,
};

use super::write_summary;
use crate::serving::{
    closed_loop, coalescing_sessions, guard, plans_clean, prom_endpoint, scrape, Fixture,
};

/// How long the storm phase's breaker stays open before it admits a
/// probe: a fraction of the storm stall a failing probe pays, so the
/// Open → HalfOpen → Open cycle repeats within the phase.
const PROBE_COOLDOWN: Duration = Duration::from_millis(1);

/// One phase's merged measurements, and the server it ran on.
struct Phase {
    name: &'static str,
    report: LoadReport,
    stats: ServeStats,
    server: Arc<Server>,
}

fn run_phase(
    name: &'static str,
    fx: &Fixture,
    serve: ServeConfig,
    load: &LoadConfig,
) -> Result<Phase, String> {
    let server = fx.serve(fx.postgres(), serve);
    let report = run_load(&server, &fx.wl, load)?;
    let stats = server.stats();
    let p = Phase {
        name,
        report,
        stats,
        server,
    };
    guard(name, &p.report)?;
    println!(
        "{name:>18}: {:>5} done | {:>6.1} qps | p99 {:>7.4}s | clean/shorted/degraded {}/{}/{} | \
         breaker opens {} half-opens {} shorted {} | expired {} | tick panics {}",
        p.report.completed,
        p.report.qps,
        percentile(&p.report.latencies, 0.99),
        p.report.clean_latencies.len(),
        p.report.shorted_latencies.len(),
        p.report.degraded_latencies.len(),
        p.stats.breaker.opens,
        p.stats.breaker.half_opens,
        p.stats.breaker.shorted_slots,
        p.stats.deadline_expired_slots,
        p.stats.chaos_panics,
    );
    Ok(p)
}

/// Probes the live endpoint of a server whose breaker is open: still
/// healthy (no tick is wedged) but not ready, and the scrape carries the
/// breaker state.
fn probes_under_storm(server: &Server) -> Result<(), String> {
    let prom = prom_endpoint(server.probes())?;
    let probe = |path: &str| {
        prom.get(path)
            .map_err(|e| format!("{path} request failed: {e}"))
    };
    let (code, body) = probe("/healthz")?;
    ensure!(
        code == 200,
        "/healthz under storm must be 200, got {code} ({body})"
    );
    let (code, body) = probe("/readyz")?;
    ensure!(
        code == 503 && body.contains("breaker"),
        "/readyz with the breaker open must be 503 naming the breaker, got {code} ({body})"
    );
    scrape(&prom, "cardbench_serve_breaker_state")
}

/// A counter as a JSON number.
fn count(v: u64) -> Json {
    Json::Number(v as f64)
}

fn class_json(name: &'static str, lat: &[f64]) -> (&'static str, Json) {
    (
        name,
        Json::object([
            ("count", count(lat.len() as u64)),
            ("p50_secs", Json::Number(percentile(lat, 0.50))),
            ("p99_secs", Json::Number(percentile(lat, 0.99))),
        ]),
    )
}

fn phase_json(p: &Phase) -> Json {
    let (r, st, br) = (&p.report, &p.stats, &p.stats.breaker);
    Json::object([
        ("phase", Json::String(p.name.to_string())),
        ("completed", count(r.completed)),
        ("goodput_qps", Json::Number(r.qps)),
        ("p50_secs", Json::Number(percentile(&r.latencies, 0.50))),
        ("p99_secs", Json::Number(percentile(&r.latencies, 0.99))),
        class_json("clean", &r.clean_latencies),
        class_json("shorted", &r.shorted_latencies),
        class_json("degraded", &r.degraded_latencies),
        ("est_failures", count(r.est_failures)),
        ("unattributed", count(r.unattributed)),
        (
            "breaker",
            Json::object([
                ("opens", count(br.opens)),
                ("closes", count(br.closes)),
                ("half_opens", count(br.half_opens)),
                ("shorted_slots", count(br.shorted_slots)),
                ("observed_slots", count(br.observed_slots)),
            ]),
        ),
        ("deadline_expired_slots", count(st.deadline_expired_slots)),
        ("chaos_panics", count(u64::from(st.chaos_panics))),
    ])
}

pub fn run(smoke: bool) -> Result<(), String> {
    // More sessions than cores, so the coalesced route (queue
    // deadlines, panics with other sessions' jobs in hand) is on the
    // path on any host.
    let sessions = coalescing_sessions() * if smoke { 1 } else { 2 };
    let stall = Duration::from_millis(if smoke { 5 } else { 10 });
    let fx = &Fixture::new(smoke, if smoke { [4, 6, 3] } else { [8, 16, 5] });
    // Chaos phases measure the service's fault handling, not first-touch
    // execution.
    fx.warm_up(fx.postgres())?;

    let replays = 256usize.div_ceil(sessions * fx.wl.queries.len()).max(2);
    let load = closed_loop(sessions, replays);
    let storm = ChaosConfig {
        seed: 17,
        rate: 1.0,
        classes: vec![TickFault::Storm],
        stall,
        ..ChaosConfig::default()
    };
    // A breaker sized so the storm trips it within the first queries and
    // probes keep re-testing (and re-failing) during the phase.
    let tight_breaker = BreakerConfig {
        window: 32,
        open_threshold: 0.5,
        min_samples: 8,
        cooldown: PROBE_COOLDOWN,
    };

    let baseline = run_phase("baseline", fx, ServeConfig::default(), &load)?;
    ensure!(
        baseline.report.est_failures == 0,
        "baseline: clean serving must be fault-free"
    );
    ensure!(
        baseline.stats.breaker.opens == 0
            && baseline.stats.breaker_state == Some(BreakerState::Closed),
        "baseline: the breaker is observation-only when healthy"
    );

    let storm_open = run_phase(
        "storm/breaker-off",
        fx,
        ServeConfig {
            chaos: Some(storm.clone()),
            breaker: None,
            ..ServeConfig::default()
        },
        &load,
    )?;
    ensure!(
        !storm_open.report.degraded_latencies.is_empty(),
        "storm without a breaker must produce failed-then-degraded queries"
    );

    let storm_shorted = run_phase(
        "storm/breaker-on",
        fx,
        ServeConfig {
            chaos: Some(storm.clone()),
            breaker: Some(tight_breaker),
            ..ServeConfig::default()
        },
        &load,
    )?;
    ensure!(
        storm_shorted.stats.breaker.opens >= 1
            && storm_shorted.stats.breaker_state == Some(BreakerState::Open),
        "a total storm must trip the breaker"
    );
    ensure!(
        storm_shorted.stats.breaker.half_opens >= 1,
        "the breaker must half-open and re-test during the storm"
    );
    ensure!(
        storm_shorted.stats.breaker.shorted_slots > 0
            && !storm_shorted.report.shorted_latencies.is_empty(),
        "an open breaker must short slots"
    );
    probes_under_storm(&storm_shorted.server)?;

    let deadline = run_phase(
        "slow/deadline",
        fx,
        ServeConfig {
            chaos: Some(ChaosConfig {
                seed: 19,
                rate: 1.0,
                classes: vec![TickFault::Slow],
                stall: 4 * stall,
                ..ChaosConfig::default()
            }),
            breaker: None,
            ..ServeConfig::default()
        },
        &LoadConfig {
            deadline: Some(stall / 2),
            ..load.clone()
        },
    )?;
    ensure!(
        deadline.stats.deadline_expired_slots > 0,
        "slow ticks against a tight deadline must expire slots in the queue"
    );

    let panics = run_phase(
        "tick-panics",
        fx,
        ServeConfig {
            chaos: Some(ChaosConfig {
                seed: 23,
                rate: 0.2,
                classes: vec![TickFault::Panic],
                max_panics: Some(if smoke { 2 } else { 5 }),
                ..ChaosConfig::default()
            }),
            ..ServeConfig::default()
        },
        &load,
    )?;
    ensure!(
        panics.stats.chaos_panics >= 1 && !panics.report.degraded_latencies.is_empty(),
        "the panic phase must panic ticks and degrade their queries"
    );
    plans_clean(&panics.server, &fx.wl)?;

    // The headline: shorting a doomed call must be materially cheaper at
    // the tail than paying for it and then degrading.
    let degraded_p99 = percentile(&storm_open.report.degraded_latencies, 0.99);
    let shorted_p99 = percentile(&storm_shorted.report.shorted_latencies, 0.99);
    println!(
        "headline: failed-then-degraded p99 {degraded_p99:.4}s vs breaker-shorted p99 \
         {shorted_p99:.4}s ({:.1}x)",
        degraded_p99 / shorted_p99
    );
    ensure!(
        shorted_p99 < degraded_p99,
        "breaker-shorted p99 ({shorted_p99:.4}s) must beat failed-then-degraded \
         p99 ({degraded_p99:.4}s)"
    );

    let phases = [baseline, storm_open, storm_shorted, deadline, panics];
    let summary = Json::object([
        ("bench", Json::String("chaos_serve".to_string())),
        (
            "setup",
            Json::String(format!(
                "STATS-CEB analog workload ({} queries, ≤5 tables) on STATS data at the \
                 default benchmark scale; PostgreSQL baseline estimator behind the serving \
                 layer; {sessions} closed-loop sessions per phase; storm stall {stall:?} per \
                 admitted call; truth cache warmed before timing",
                fx.wl.queries.len()
            )),
        ),
        (
            "notes",
            Json::String(
                "each phase restarts the service with one fault regime; latency classes are \
                 per completed query, worst sub-plan fault wins: clean, breaker-shorted \
                 (typed Shorted/DeadlineExceeded, the doomed call was skipped), or \
                 failed-then-degraded (typed Panicked/TimedOut, the doomed call was paid). \
                 The headline is the storm phases' tail: with the breaker open, requests \
                 short to the shared PostgreSQL fallback instantly instead of paying the \
                 storm stall per tick; the two storm phases differ only in the breaker. \
                 unattributed is asserted zero everywhere: every degradation carries a \
                 typed error"
                    .to_string(),
            ),
        ),
        (
            "headline",
            Json::object([
                ("failed_then_degraded_p99_secs", Json::Number(degraded_p99)),
                ("breaker_shorted_p99_secs", Json::Number(shorted_p99)),
                (
                    "degraded_over_shorted_p99",
                    Json::Number(degraded_p99 / shorted_p99),
                ),
            ]),
        ),
        (
            "phases",
            Json::Array(phases.iter().map(phase_json).collect()),
        ),
    ]);
    write_summary(smoke, "chaos", summary);
    Ok(())
}
