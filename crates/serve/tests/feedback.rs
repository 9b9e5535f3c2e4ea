//! Serve-layer adaptive feedback: the shared cross-session store turns
//! executed truths from one session into overrides for every later
//! session, survives estimator poisoning with clamped corrections, and
//! stays completely inert (absent from stats) when disabled.

use std::sync::{Arc, OnceLock};

use cardbench_engine::{CostModel, Database, TrueCardService};
use cardbench_estimators::chaos::{ChaosConfig, ChaosEst, FaultClass};
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_harness::{build_estimator, Bench, BenchConfig, PlannedQuery};
use cardbench_serve::{ServeConfig, Server};
use cardbench_workload::Workload;

struct Ctx {
    db: Arc<Database>,
    wl: Workload,
    bench: Bench,
}

fn ctx() -> &'static Ctx {
    static C: OnceLock<Ctx> = OnceLock::new();
    C.get_or_init(|| {
        let mut bench = Bench::build(BenchConfig::fast(23));
        let db = Arc::new(std::mem::replace(
            &mut bench.stats_db,
            Database::new(cardbench_storage::Catalog::new()),
        ));
        let wl = bench.stats_wl.clone();
        Ctx { db, wl, bench }
    })
}

fn feedback_server(est: Arc<dyn CardEst>) -> Arc<Server> {
    let c = ctx();
    Arc::new(Server::start(
        Arc::clone(&c.db),
        Arc::new(TrueCardService::new()),
        est,
        CostModel::default(),
        ServeConfig {
            feedback: true,
            ..ServeConfig::default()
        },
    ))
}

fn replay_session(server: &Arc<Server>) -> Vec<PlannedQuery> {
    let mut session = server.session().expect("admission under the default cap");
    ctx()
        .wl
        .queries
        .iter()
        .map(|wq| session.plan(wq).expect("no budget in this test"))
        .collect()
}

/// A first session's observations make a *second* session oracle-exact:
/// the store is shared across sessions, so every sub-plan the warm pass
/// executed becomes an exact override and all q-errors collapse to 1.
#[test]
fn warm_store_from_one_session_makes_the_next_oracle_exact() {
    let c = ctx();
    let built = build_estimator(
        EstimatorKind::Postgres,
        &c.db,
        &c.bench.stats_train,
        &c.bench.config.settings,
    );
    let server = feedback_server(Arc::from(built.est));

    let warm = replay_session(&server);
    // The raw estimator must actually be wrong somewhere, or the test
    // proves nothing.
    assert!(
        warm.iter().flat_map(|p| &p.q_errors).any(|&q| q > 1.0),
        "Postgres was already oracle-exact on the warm pass"
    );

    let replay = replay_session(&server);
    for p in &replay {
        for (i, (&e, &t)) in p.sub_est_cards.iter().zip(&p.sub_true_cards).enumerate() {
            assert_eq!(
                e.to_bits(),
                t.to_bits(),
                "Q{} sub-plan {i}: override not bit-exact",
                p.id
            );
        }
        assert!(
            p.q_errors.iter().all(|&q| q == 1.0),
            "Q{}: q-errors not 1.0 after warm store: {:?}",
            p.id,
            p.q_errors
        );
    }

    let stats = server.stats();
    let fb = stats.feedback.expect("feedback enabled");
    assert!(fb.observations > 0, "warm pass recorded nothing");
    assert!(fb.overrides > 0, "replay pass never hit an exact entry");
    assert_eq!(fb.rejected, 0, "oracle truths were rejected");
}

/// Estimator poisoning: a chaos-wrapped inner estimator injecting NaN,
/// infinities, and negative counts feeds garbage into the store via its
/// own estimates, but clamped correction sampling keeps every served
/// estimate finite and non-negative, and the replay pass still converges
/// to the oracle via exact overrides.
#[test]
fn poisoned_observations_never_produce_non_finite_estimates() {
    let c = ctx();
    let built = build_estimator(
        EstimatorKind::Postgres,
        &c.db,
        &c.bench.stats_train,
        &c.bench.config.settings,
    );
    let chaotic: Arc<dyn CardEst> = Arc::new(ChaosEst::new(
        built.est,
        ChaosConfig {
            seed: 41,
            rate: 0.4,
            classes: FaultClass::VALUES.to_vec(),
            ..ChaosConfig::default()
        },
    ));
    let server = feedback_server(chaotic);

    let warm = replay_session(&server);
    assert!(
        warm.iter().any(|p| !p.est_failures.is_empty()),
        "chaos rate too low: no value faults injected"
    );

    let replay = replay_session(&server);
    for p in warm.iter().chain(&replay) {
        for (i, &e) in p.sub_est_cards.iter().enumerate() {
            assert!(
                e.is_finite() && e >= 0.0,
                "Q{} sub-plan {i}: non-finite or negative estimate {e} leaked through feedback",
                p.id
            );
        }
    }
    // Exact overrides still repair the replay pass even though the inner
    // estimator keeps faulting.
    for p in &replay {
        assert!(
            p.q_errors.iter().all(|&q| q == 1.0),
            "Q{}: poisoned store failed to converge: {:?}",
            p.id,
            p.q_errors
        );
    }
    let fb = server.stats().feedback.expect("feedback enabled");
    assert!(fb.observations > 0);
}

/// With feedback disabled (the default), the store never exists: stats
/// report `None` and the estimator keeps its own name — the serve
/// differential suite separately pins bit-identity of every number.
#[test]
fn disabled_feedback_is_absent_from_stats() {
    let c = ctx();
    let built = build_estimator(
        EstimatorKind::Postgres,
        &c.db,
        &c.bench.stats_train,
        &c.bench.config.settings,
    );
    let server = Server::start(
        Arc::clone(&c.db),
        Arc::new(TrueCardService::new()),
        Arc::from(built.est),
        CostModel::default(),
        ServeConfig::default(),
    );
    let server = Arc::new(server);
    let _ = replay_session(&server);
    assert!(server.stats().feedback.is_none());
}
