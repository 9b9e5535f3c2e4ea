//! Execution feedback composed at the call site: the caller wraps its
//! estimator in a `FeedbackEst` before `Server::start` and observes each
//! returned `PlannedQuery` into the store. The one store is shared by
//! every session, so executed truths from one session become overrides
//! for every later session, and estimator poisoning is survived with
//! clamped corrections.

use std::sync::{Arc, OnceLock};

use cardbench_engine::{CostModel, Database, TrueCardService};
use cardbench_estimators::chaos::{ChaosConfig, ChaosEst, FaultClass};
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_feedback::{FeedbackEst, FeedbackStore};
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

/// A server whose estimator resolves through one shared feedback
/// store, and that store.
fn feedback_server(est: Box<dyn CardEst>) -> (Server, Arc<FeedbackStore>) {
    let c = ctx();
    let store = Arc::new(FeedbackStore::default());
    let server = Server::start(
        Arc::clone(&c.db),
        Arc::new(TrueCardService::new()),
        Arc::new(FeedbackEst::new(est, Arc::clone(&store))),
        CostModel::default(),
        ServeConfig::default(),
    );
    (server, store)
}

/// One session replays the workload, observing every planned query's
/// true sub-plan cardinalities back into `store`.
fn replay_session(server: &Server, store: &FeedbackStore) -> Vec<PlannedQuery> {
    let mut session = server.session().expect("admission under the default cap");
    ctx()
        .wl
        .queries
        .iter()
        .map(|wq| {
            let p = session.plan(wq).expect("the server is live");
            if p.plan.is_ok() {
                store.observe_subplans(&p.subs, &p.sub_est_cards, &p.sub_true_cards);
            }
            p
        })
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
    let (server, store) = feedback_server(built.est);

    let warm = replay_session(&server, &store);
    // The raw estimator must actually be wrong somewhere, or the test
    // proves nothing.
    assert!(
        warm.iter().flat_map(|p| &p.q_errors).any(|&q| q > 1.0),
        "Postgres was already oracle-exact on the warm pass"
    );

    let replay = replay_session(&server, &store);
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

    let fb = store.stats();
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
    let chaotic = Box::new(ChaosEst::new(
        built.est,
        ChaosConfig {
            seed: 41,
            rate: 0.4,
            classes: FaultClass::VALUES.to_vec(),
            ..ChaosConfig::default()
        },
    ));
    let (server, store) = feedback_server(chaotic);

    let warm = replay_session(&server, &store);
    assert!(
        warm.iter().any(|p| !p.est_failures.is_empty()),
        "chaos rate too low: no value faults injected"
    );

    let replay = replay_session(&server, &store);
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
    let fb = store.stats();
    assert!(fb.observations > 0);
}
