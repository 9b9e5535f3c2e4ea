//! Estimator construction by kind, with training-time measurement.

use std::sync::Arc;
use std::time::{Duration, Instant};

use cardbench_engine::Database;
use cardbench_estimators::bayescard::BayesCard;
use cardbench_estimators::deepdb::DeepDb;
use cardbench_estimators::flat::Flat;
use cardbench_estimators::lw::{LwNn, LwXgb, TrainingSet};
use cardbench_estimators::mscn::Mscn;
use cardbench_estimators::multihist::MultiHist;
use cardbench_estimators::neurocard::NeuroCardE;
use cardbench_estimators::pessest::PessEst;
use cardbench_estimators::postgres::PostgresEst;
use cardbench_estimators::truecard::TrueCardEst;
use cardbench_estimators::uae::{Uae, UaeQ};
use cardbench_estimators::unisample::UniSample;
use cardbench_estimators::wjsample::WjSample;
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_feedback::{FeedbackEst, FeedbackStore};
use cardbench_sketch::SketchEst;

use crate::config::EstimatorSettings;

/// A constructed estimator with its build cost.
pub struct BuiltEstimator {
    /// The estimator.
    pub est: Box<dyn CardEst>,
    /// Wall-clock training time.
    pub train_time: Duration,
    /// Model size after training.
    pub model_size: usize,
}

/// Builds the estimator of `kind`, timing its training. Query-driven
/// kinds consume `train`.
pub fn build_estimator(
    kind: EstimatorKind,
    db: &Database,
    train: &TrainingSet,
    s: &EstimatorSettings,
) -> BuiltEstimator {
    let t0 = Instant::now();
    let est: Box<dyn CardEst> = match kind {
        EstimatorKind::TrueCard => Box::new(TrueCardEst::new()),
        EstimatorKind::Postgres => Box::new(PostgresEst::fit(db)),
        EstimatorKind::MultiHist => Box::new(MultiHist::fit(db)),
        EstimatorKind::UniSample => Box::new(UniSample::fit(db, s.sample_size, s.seed)),
        EstimatorKind::WjSample => Box::new(WjSample::new(s.wj_walks, s.seed)),
        EstimatorKind::PessEst => Box::new(PessEst::fit(db)),
        EstimatorKind::Mscn => Box::new(Mscn::fit(db, train, &s.mscn)),
        EstimatorKind::LwXgb => Box::new(LwXgb::fit(db, train, &s.gbdt)),
        EstimatorKind::LwNn => Box::new(LwNn::fit(db, train, &s.lw_nn)),
        EstimatorKind::UaeQ => Box::new(UaeQ::fit(db, train, &s.uae)),
        EstimatorKind::NeuroCardE => Box::new(NeuroCardE::fit(db, &s.neurocard)),
        EstimatorKind::BayesCard => Box::new(BayesCard::fit(db, s.max_bins)),
        EstimatorKind::DeepDb => Box::new(DeepDb::fit(db, s.max_bins, s.seed)),
        EstimatorKind::Flat => Box::new(Flat::fit(db, s.max_bins, s.seed)),
        EstimatorKind::Uae => Box::new(Uae::fit(db, train, &s.uae)),
        // Sharded mergeable build: shard count from `s.sketch.shards`
        // (0 = `CARDBENCH_THREADS`, then all cores), bit-identical to a
        // sequential scan for any value.
        EstimatorKind::Sketch => Box::new(SketchEst::fit(db, &s.sketch)),
        // Bare `Feedback` wraps the PostgreSQL baseline with a fresh
        // store; wrap any built estimator in `FeedbackEst` directly to
        // pick the inner kind and share a store across runs/sessions.
        EstimatorKind::Feedback => Box::new(FeedbackEst::new(
            Box::new(PostgresEst::fit(db)),
            Arc::new(FeedbackStore::default()),
        )),
    };
    let train_time = t0.elapsed();
    let model_size = est.model_size_bytes();
    BuiltEstimator {
        est,
        train_time,
        model_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Bench, BenchConfig};

    #[test]
    fn every_kind_builds_and_estimates() {
        let b = Bench::build(BenchConfig::fast(11));
        let s = &b.config.settings;
        for kind in EstimatorKind::ALL {
            let built = build_estimator(kind, &b.stats_db, &b.stats_train, s);
            assert_eq!(built.est.name(), kind.name());
            // Estimate the first workload query end-to-end.
            let wq = &b.stats_wl.queries[0];
            let sub = cardbench_query::SubPlanQuery {
                mask: cardbench_query::TableMask::full(wq.query.table_count()),
                query: wq.query.clone(),
            };
            let e = built.est.estimate(&b.stats_db, &sub);
            assert!(e.is_finite() && e >= 0.0, "{}: estimate {e}", kind.name());
        }
    }
}
