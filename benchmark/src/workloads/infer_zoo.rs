//! `infer_zoo`: inference and nothing else, on one thread. An op is one
//! `CardEst::estimate_batch` over the whole sub-plan set of one query,
//! for each of the six estimator families that override the batch path
//! (MSCN, LW-NN, LW-XGB, BayesCard, DeepDB, FLAT), trained in set-up.
//! NeuroCard^E and UAE are left out: one of their estimates costs more
//! than a whole pass of the other six and would hide them. A pass
//! replays the 146 queries a fixed number of times per family, more
//! often for the cheap ones, so that every family holds between a ninth
//! and a quarter of a pass and a change to any of them moves the
//! throughput. Chosen
//! for estimator routing (ROADMAP item 3) and any `ml` kernel work; the
//! optimizer and the executor do nothing.

use std::time::Instant;

use cardbench_engine::Database;
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_query::SubPlanQuery;

use super::{
    bit_equal, ceb_queries, config, ratio, shuffle, stats_data, subplans, train, training_set,
    Layers, Pass, SetupClock, Workload,
};
use crate::names::ZOO;
use crate::reduce::Digest;
use crate::trace::{Profile, Tracer, OP};

/// The six kinds in [`ZOO`] order, with the span of their batch call
/// and their replays of the query list per pass. With one replay each,
/// BayesCard alone was 0.55 of a pass on the reference host and LW-NN
/// 0.03; with these weights the shares are 0.22, 0.11, 0.13, 0.27, 0.14
/// and 0.14.
const KINDS: [(EstimatorKind, &str, usize); 6] = [
    (EstimatorKind::Mscn, "estimators.mscn.estimate_batch", 2),
    (EstimatorKind::LwNn, "estimators.lw-nn.estimate_batch", 8),
    (EstimatorKind::LwXgb, "estimators.lw-xgb.estimate_batch", 8),
    (
        EstimatorKind::BayesCard,
        "estimators.bayescard.estimate_batch",
        1,
    ),
    (EstimatorKind::DeepDb, "estimators.deepdb.estimate_batch", 4),
    (EstimatorKind::Flat, "estimators.flat.estimate_batch", 4),
];

pub struct InferZoo {
    tracer: &'static Tracer,
    db: Database,
    /// Sub-plan set per query, with the query's canonical hash.
    queries: Vec<(u64, Vec<SubPlanQuery>)>,
    ests: Vec<Box<dyn CardEst>>,
    /// (estimator, query) pairs in seed order.
    ops: Vec<(usize, usize)>,
}

impl Workload for InferZoo {
    const NAME: &'static str = "infer_zoo";
    const THREADS: usize = 1;
    const OPS: usize = 3942;
    const PASSES: usize = 65;

    fn setup(seed: u64, clock: &mut SetupClock, tracer: &'static Tracer) -> InferZoo {
        let cfg = config();
        let db = Database::new(stats_data(&cfg, clock));
        let wl = ceb_queries(&db, &cfg, clock);
        let set = training_set(&db, &cfg, clock);
        let ests = KINDS
            .iter()
            .map(|&(kind, _, _)| train(kind, &db, &set, &cfg, clock))
            .collect();
        let queries: Vec<(u64, Vec<SubPlanQuery>)> = wl
            .queries
            .iter()
            .map(|wq| (wq.query.canonical_hash(), subplans(&db, &wq.query).1))
            .collect();
        let mut ops: Vec<(usize, usize)> = Vec::new();
        for (e, &(_, _, replays)) in KINDS.iter().enumerate() {
            for _ in 0..replays {
                ops.extend((0..queries.len()).map(|q| (e, q)));
            }
        }
        shuffle(&mut ops, seed);
        InferZoo {
            tracer,
            db,
            queries,
            ests,
            ops,
        }
    }

    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for &(e, q) in &self.ops {
            d.word(e as u64);
            d.word(self.queries[q].0);
        }
        d.0
    }

    fn pass(&mut self, full_checks: bool) -> Pass {
        let mut pass = Pass::new(self.ops.len());
        let start = Instant::now();
        for (i, &(e, q)) in self.ops.iter().enumerate() {
            let subs = &self.queries[q].1;
            let est = self.ests[e].as_ref();
            let t0 = Instant::now();
            let batch = {
                let _op = self.tracer.op(OP, i as u32);
                let _s = self.tracer.span(KINDS[e].1);
                est.estimate_batch(&self.db, subs)
            };
            let took = t0.elapsed();
            let mut check = if batch.len() == subs.len() && batch.iter().all(|v| v.is_finite()) {
                Ok(())
            } else {
                Err(format!(
                    "{}: a batch value is missing or not finite",
                    est.name()
                ))
            };
            if full_checks && check.is_ok() {
                let single: Vec<f64> = subs.iter().map(|s| est.estimate(&self.db, s)).collect();
                if !bit_equal(&batch, &single) {
                    check = Err(format!(
                        "{}: estimate_batch differs from per-sub-plan estimate",
                        est.name()
                    ));
                }
            }
            pass.record(i, took, check);
        }
        pass.wall = start.elapsed();
        pass
    }

    fn layers(&mut self, profile: &Profile, out: &mut Layers) {
        let root = profile.busy_s(OP);
        let subplans_per_replay: usize = self.queries.iter().map(|(_, subs)| subs.len()).sum();
        let (mut all, mut max_kind) = (0.0, 0.0f64);
        for ((kind, &(_, span, replays)), est) in ZOO.iter().zip(&KINDS).zip(&self.ests) {
            out.put(
                &format!("estimators.{kind}.subplans_per_s"),
                ratio((subplans_per_replay * replays) as f64, profile.busy_s(span)),
            );
            out.put(
                &format!("estimators.{kind}.batch_us_p50"),
                profile.p50_us(span),
            );
            out.put(
                &format!("estimators.{kind}.model_bytes"),
                est.model_size_bytes() as f64,
            );
            all += profile.own_s(span);
            max_kind = max_kind.max(profile.own_s(span));
        }
        out.put("estimators.share", ratio(all, root));
        out.put("estimators.max_kind_share", ratio(max_kind, root));
    }
}
