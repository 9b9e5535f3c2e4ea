//! What the `serve` and `chaos-serve` suites share: the fixture a server
//! is started over, closed-loop load, the invariants every load phase
//! must keep, and the live metrics endpoint they scrape.

use std::sync::Arc;

use cardbench_datagen::{stats_catalog, StatsConfig};
use cardbench_engine::{CostModel, Database, TrueCardService};
use cardbench_estimators::postgres::PostgresEst;
use cardbench_estimators::CardEst;
use cardbench_serve::{
    run_load, HealthProbes, LoadConfig, LoadReport, PromServer, ServeConfig, Server,
};
use cardbench_workload::{stats_ceb, Workload, WorkloadConfig};

/// A database, its workload and one truth cache (truth is
/// estimator-free, so every server over the fixture shares it).
pub struct Fixture {
    pub db: Arc<Database>,
    pub truth: Arc<TrueCardService>,
    pub wl: Workload,
}

impl Fixture {
    /// STATS at seed 3 (the tiny tier in smoke mode) and a seed-5
    /// STATS-CEB analog workload of the given `[templates, queries,
    /// max_tables]` shape.
    pub fn new(smoke: bool, shape: [usize; 3]) -> Fixture {
        let stats = if smoke {
            StatsConfig::tiny(3)
        } else {
            StatsConfig {
                seed: 3,
                ..StatsConfig::default()
            }
        };
        let db = Database::new(stats_catalog(&stats));
        let [templates, queries, max_tables] = shape;
        let wl = stats_ceb(
            &db,
            &WorkloadConfig {
                seed: 5,
                templates,
                queries,
                max_tables,
                max_predicates: 4,
                retries: 30,
                max_subplan_card: 1e7,
            },
        );
        assert!(!wl.queries.is_empty(), "serving workload is empty");
        Fixture {
            db: Arc::new(db),
            truth: Arc::new(TrueCardService::new()),
            wl,
        }
    }

    /// A fresh PostgreSQL-baseline estimator over the fixture's data.
    pub fn postgres(&self) -> Arc<dyn CardEst> {
        Arc::new(PostgresEst::fit(&self.db))
    }

    /// Starts a server over the fixture.
    pub fn serve(&self, est: Arc<dyn CardEst>, cfg: ServeConfig) -> Arc<Server> {
        Arc::new(Server::start(
            Arc::clone(&self.db),
            Arc::clone(&self.truth),
            est,
            CostModel::default(),
            cfg,
        ))
    }

    /// One single-session replay, so no timed phase pays exact execution
    /// or cold engine memos. Its report gives a lower bound on `est`'s
    /// single-session rate.
    pub fn warm_up(&self, est: Arc<dyn CardEst>) -> Result<LoadReport, String> {
        let server = self.serve(est, ServeConfig::default());
        let report = run_load(&server, &self.wl, &closed_loop(1, 1))?;
        guard("warmup", &report)?;
        Ok(report)
    }
}

/// Enough sessions to keep a phase on the coalesced route on any host:
/// the server ticks inline while live sessions ≤ cores.
pub fn coalescing_sessions() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()) + 2
}

/// `sessions` sessions each replaying the workload `replays` times back
/// to back, undeadlined.
pub fn closed_loop(sessions: usize, replays: usize) -> LoadConfig {
    LoadConfig {
        sessions,
        arrival_qps: None,
        replays,
        deadline: None,
    }
}

/// Invariants of every load phase on a healthy or self-healing server:
/// queries complete, every fault is typed, nothing is rejected (the
/// session cap fits) or fails to plan — chaos degrades answers, never
/// correctness.
pub fn guard(phase: &str, r: &LoadReport) -> Result<(), String> {
    ensure!(r.completed > 0, "{phase}: no queries completed");
    ensure!(
        r.failed == 0,
        "{phase}: {} queries failed to plan",
        r.failed
    );
    ensure!(
        r.unattributed == 0,
        "{phase}: {} unattributed faults (every degradation must be typed)",
        r.unattributed
    );
    ensure!(
        r.rejected == 0,
        "{phase}: {} rejections under a fitting session cap",
        r.rejected
    );
    Ok(())
}

/// Plans the workload's first query on a fresh session: once a chaos
/// budget is spent, serving must be clean again.
pub fn plans_clean(server: &Server, wl: &Workload) -> Result<(), String> {
    let planned = server
        .session()
        .map_err(|e| format!("post-chaos admission failed: {e}"))?
        .plan(&wl.queries[0])
        .map_err(|e| format!("post-chaos plan failed: {e}"))?;
    ensure!(
        planned.est_failures.is_empty() && planned.plan.is_ok(),
        "serving must recover to clean answers once the panic budget is spent"
    );
    Ok(())
}

/// Binds the live metrics endpoint, with `probes` behind `/healthz` and
/// `/readyz`, on an ephemeral loopback port.
pub fn prom_endpoint(probes: HealthProbes) -> Result<PromServer, String> {
    PromServer::bind_with_probes("127.0.0.1:0", probes)
        .map_err(|e| format!("cannot bind the prometheus endpoint: {e}"))
}

/// Scrapes the live endpoint; while recording is on, `family` must be in
/// the answer.
pub fn scrape(prom: &PromServer, family: &str) -> Result<(), String> {
    let body = prom
        .scrape()
        .map_err(|e| format!("self-scrape failed: {e}"))?;
    ensure!(
        !cardbench_obs::enabled() || body.contains(family),
        "scrape lacks {family}"
    );
    eprintln!(
        "[serve] scrape of http://{} OK ({} bytes)",
        prom.local_addr(),
        body.len()
    );
    Ok(())
}
