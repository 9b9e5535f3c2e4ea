//! `ceb_e2e`: the paper's Table 2 pipeline on one thread. An op takes
//! one (query, estimator) pair through `harness::plan_query_via` —
//! estimate every connected sub-plan, inject, optimize, Q-/P-Error —
//! and executes the chosen plan once. Chosen because it is what the
//! paper's users run, and the executor does most of the work, so
//! executor changes show at their real weight and planning or inference
//! gains show diluted.

use std::sync::OnceLock;
use std::time::Instant;

use cardbench_engine::{
    optimize_topo, try_execute_with, CardMap, CostModel, Database, ExecScratch, ExecStats,
    TrueCardService,
};
use cardbench_estimators::lw::TrainingSet;
use cardbench_estimators::postgres::PostgresEst;
use cardbench_estimators::{CardEst, EstimatorKind};
use cardbench_harness::{estimate_all, plan_query_via, PlannedQuery};
use cardbench_metrics::{p_error, percentile};
use cardbench_query::{BoundQuery, SubPlanQuery};
use cardbench_workload::{Workload as Queries, WorkloadQuery};

use super::{
    bit_equal, ceb_queries, config, hit_ratio, ratio, replay_p_error_searches, shuffle, stats_data,
    topology_cached_share, train, Layers, Pass, SetupClock, Workload, OPTIMIZE_IN_P_ERROR,
};
use crate::reduce::{median, Digest};
use crate::trace::{Profile, Tracer, OP};

/// The three estimators with cheap inference, and the span their
/// estimate closure opens.
const KINDS: [(EstimatorKind, &str); 3] = [
    (EstimatorKind::Postgres, "estimators.postgres.estimate_all"),
    (
        EstimatorKind::BayesCard,
        "estimators.bayescard.estimate_all",
    ),
    (EstimatorKind::Sketch, "sketch.estimate_all"),
];

const PLAN: &str = "harness.plan_query_via";
const EXEC: &str = "engine.try_execute_with";
/// Direct calls of the traced run into what `plan_query_via` hides.
const BIND: &str = "query.bind";
const PROJECT: &str = "query.project";
const TOPOLOGY: &str = "engine.topology";
const TRUECARD: &str = "engine.truecard";
const OPTIMIZE: &str = "engine.optimize_topo";
const P_ERROR: &str = "metrics.p_error";
const HIDDEN: [&str; 6] = [BIND, PROJECT, TOPOLOGY, TRUECARD, OPTIMIZE, P_ERROR];

pub struct CebE2e {
    tracer: &'static Tracer,
    db: Database,
    queries: Queries,
    ests: Vec<Box<dyn CardEst>>,
    truth: TrueCardService,
    cost: CostModel,
    fallback: OnceLock<PostgresEst>,
    scratch: ExecScratch,
    /// (estimator, query) pairs in seed order.
    ops: Vec<(usize, usize)>,
}

impl CebE2e {
    fn plan(&self, est: usize, wq: &WorkloadQuery) -> PlannedQuery {
        let _plan = self.tracer.span(PLAN);
        plan_query_via(
            &self.db,
            wq,
            &|subs| {
                let _est = self.tracer.span(KINDS[est].1);
                estimate_all(self.ests[est].as_ref(), &self.db, subs, None)
            },
            &self.truth,
            &self.cost,
            &self.fallback,
        )
    }

    /// Executes the plan of `planned`; the executed COUNT(*) must equal
    /// the workload's true cardinality.
    fn execute(
        &self,
        scratch: &mut ExecScratch,
        planned: &PlannedQuery,
        wq: &WorkloadQuery,
    ) -> Result<ExecStats, String> {
        let (bound, plan) = planned
            .plan
            .as_ref()
            .map_err(|failure| format!("Q{} not planned: {failure:?}", wq.id))?;
        let (rows, stats) = {
            let _exec = self.tracer.span(EXEC);
            try_execute_with(plan, bound, &self.db, scratch, None)
        }
        .map_err(|e| format!("Q{} not executed: {e}", wq.id))?;
        if rows as f64 == wq.true_card {
            Ok(stats)
        } else {
            Err(format!(
                "Q{} COUNT(*) {rows}, true cardinality {}",
                wq.id, wq.true_card
            ))
        }
    }

    /// `(hits, misses)` of the topology, true-cardinality, filtered-scan
    /// and aggregate memos.
    fn cache_stats(&self) -> [(u64, u64); 4] {
        [
            self.db.topology_cache_stats(),
            self.truth.cache_stats(),
            self.db.filter_cache_stats(),
            self.db.agg_cache_stats(),
        ]
    }

    /// Calls each layer `plan_query_via` hides directly, on the inputs
    /// the coarse call used, and checks they return what it used.
    fn direct_calls(&self, wq: &WorkloadQuery, planned: &PlannedQuery) {
        let tr = self.tracer;
        let query = &wq.query;
        let bound = {
            let _s = tr.span(BIND);
            BoundQuery::bind(query, self.db.catalog()).expect("planned queries bind")
        };
        let topo = {
            let _s = tr.span(TOPOLOGY);
            self.db.topology(query, &bound)
        };
        let subs: Vec<SubPlanQuery> = {
            let _s = tr.span(PROJECT);
            topo.masks()
                .iter()
                .map(|&m| SubPlanQuery::project(query, m))
                .collect()
        };
        let truths = {
            let _s = tr.span(TRUECARD);
            self.truth
                .cardinalities_for_subplans(&self.db, query, &subs)
                .expect("truths were computed by the coarse call")
        };
        let true_rows: Vec<f64> = truths.iter().map(|&(_, t)| t).collect();
        assert!(
            bit_equal(&true_rows, &planned.sub_true_cards),
            "Q{}: direct truths differ from the coarse call's",
            wq.id
        );
        let (mut est_cards, mut true_cards) = (CardMap::new(), CardMap::new());
        for (i, &(mask, t)) in truths.iter().enumerate() {
            est_cards.insert_bounded(mask, planned.sub_est_cards[i], topo.cross_bound(i));
            true_cards.insert(mask, t);
        }
        let (_, plan) = {
            let _s = tr.span(OPTIMIZE);
            let dense = est_cards.dense_view(&topo);
            optimize_topo(&topo, &bound, &self.db, &dense, &self.cost, false)
        };
        let (_, coarse_plan) = planned.plan.as_ref().expect("planned");
        assert!(
            plan.structurally_identical(coarse_plan),
            "Q{}: direct optimize_topo chose another plan",
            wq.id
        );
        let pe = {
            let _s = tr.span(P_ERROR);
            p_error(&self.db, &self.cost, query, &bound, &est_cards, &true_cards)
        };
        assert_eq!(
            pe.to_bits(),
            planned.p_error.to_bits(),
            "Q{}: direct p_error differs",
            wq.id
        );
        replay_p_error_searches(
            tr,
            &self.db,
            &self.cost,
            &topo,
            &bound,
            [&est_cards, &true_cards],
        );
    }
}

impl Workload for CebE2e {
    const NAME: &'static str = "ceb_e2e";
    const THREADS: usize = 1;
    const OPS: usize = 438;
    const PASSES: usize = 20;

    fn setup(seed: u64, clock: &mut SetupClock, tracer: &'static Tracer) -> CebE2e {
        let cfg = config();
        let db = Database::new(stats_data(&cfg, clock));
        let queries = ceb_queries(&db, &cfg, clock);
        let none = TrainingSet::default();
        let ests = KINDS
            .iter()
            .map(|&(kind, _)| train(kind, &db, &none, &cfg, clock))
            .collect();
        let mut ops: Vec<(usize, usize)> = (0..KINDS.len())
            .flat_map(|e| (0..queries.queries.len()).map(move |q| (e, q)))
            .collect();
        shuffle(&mut ops, seed);
        CebE2e {
            tracer,
            db,
            queries,
            ests,
            truth: TrueCardService::new(),
            cost: CostModel::default(),
            fallback: OnceLock::new(),
            scratch: ExecScratch::new(),
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
            d.word(self.queries.queries[q].query.canonical_hash());
        }
        d.0
    }

    fn pass(&mut self, _full_checks: bool) -> Pass {
        let mut pass = Pass::new(self.ops.len());
        let mut scratch = std::mem::take(&mut self.scratch);
        let start = Instant::now();
        for (i, &(e, q)) in self.ops.iter().enumerate() {
            let wq = &self.queries.queries[q];
            let t0 = Instant::now();
            let executed = {
                let _op = self.tracer.op(OP, i as u32);
                let planned = self.plan(e, wq);
                self.execute(&mut scratch, &planned, wq)
            };
            pass.record(i, t0.elapsed(), executed.map(|_| ()));
        }
        pass.wall = start.elapsed();
        self.scratch = scratch;
        pass
    }

    fn layers(&mut self, profile: &Profile, out: &mut Layers) {
        let tr = self.tracer;
        // Three passes of direct calls, each op under its own id, next
        // to the deterministic outputs of the pipeline.
        let mut hidden = Profile::default();
        let mut exec = ExecStats::default();
        let (mut q_errors, mut p_errors) = (Vec::new(), Vec::new());
        let (mut failures, mut fallbacks, mut clamped, mut subplans) = (0u64, 0u64, 0u64, 0u64);
        let mut scratch = std::mem::take(&mut self.scratch);
        for round in 0..3 {
            for (i, &(e, q)) in self.ops.iter().enumerate() {
                let wq = &self.queries.queries[q];
                tr.set_on(false);
                let planned = self.plan(e, wq);
                tr.set_on(true);
                {
                    let _op = tr.op(OP, i as u32);
                    self.direct_calls(wq, &planned);
                }
                if round > 0 {
                    continue;
                }
                tr.set_on(false);
                let stats = self
                    .execute(&mut scratch, &planned, wq)
                    .expect("checked in every pass");
                tr.set_on(true);
                exec.build_rows += stats.build_rows;
                exec.probe_rows += stats.probe_rows;
                exec.rows_gathered += stats.rows_gathered;
                exec.partitions_spilled += stats.partitions_spilled;
                exec.peak_intermediate_bytes = exec
                    .peak_intermediate_bytes
                    .max(stats.peak_intermediate_bytes);
                q_errors.extend_from_slice(&planned.q_errors);
                p_errors.push(planned.p_error);
                failures += planned.est_failures.len() as u64;
                fallbacks += planned.fallback_subplans;
                clamped += planned.clamped_subplans;
                subplans += planned.subplans as u64;
            }
            hidden.add_pass(&tr.drain());
        }
        self.scratch = scratch;

        // Cache traffic of one untraced pass.
        tr.set_on(false);
        let before = self.cache_stats();
        self.pass(false);
        let after = self.cache_stats();
        tr.set_on(true);

        let root = profile.busy_s(OP);
        let bind = hidden.op_medians_ns(BIND);
        let project = hidden.op_medians_ns(PROJECT);
        let bind_project: Vec<f64> = bind.iter().map(|(op, ns)| ns + project[op]).collect();
        out.put("query.bind_project_us_p50", median(&bind_project) / 1e3);
        out.put(
            "engine.topology_hit_ratio",
            topology_cached_share(before[0], after[0], self.ops.len()),
        );
        out.put("engine.optimize_us_p50", hidden.p50_us(OPTIMIZE));
        out.put(
            "engine.optimize_share",
            ratio(
                hidden.own_s(OPTIMIZE) + hidden.own_s(OPTIMIZE_IN_P_ERROR),
                root,
            ),
        );
        out.put("engine.topology_share", ratio(hidden.own_s(TOPOLOGY), root));
        out.put("metrics.p_error_us_p50", hidden.p50_us(P_ERROR));

        out.put("engine.exec_busy_s", profile.busy_s(EXEC));
        out.put("engine.exec_share", ratio(profile.own_s(EXEC), root));
        out.put(
            "engine.exec_rows_per_s",
            ratio(
                (exec.build_rows + exec.probe_rows) as f64,
                profile.busy_s(EXEC),
            ),
        );
        out.put("engine.exec_build_rows", exec.build_rows as f64);
        out.put("engine.exec_probe_rows", exec.probe_rows as f64);
        out.put("engine.exec_rows_gathered", exec.rows_gathered as f64);
        out.put(
            "engine.exec_partitions_spilled",
            exec.partitions_spilled as f64,
        );
        out.put(
            "engine.exec_peak_intermediate_bytes",
            exec.peak_intermediate_bytes as f64,
        );

        out.put(
            "engine.truecard_subplans_per_s",
            ratio(subplans as f64, hidden.busy_s(TRUECARD)),
        );
        out.put("engine.truecard_hit_ratio", hit_ratio(before[1], after[1]));
        out.put(
            "engine.filter_cache_hit_ratio",
            hit_ratio(before[2], after[2]),
        );
        out.put("engine.agg_memo_hit_ratio", hit_ratio(before[3], after[3]));

        let bayes = KINDS[1].1;
        let per_kind_subplans = subplans as f64 / KINDS.len() as f64;
        out.put(
            "estimators.bayescard.subplans_per_s",
            ratio(per_kind_subplans, profile.busy_s(bayes)),
        );
        out.put("estimators.bayescard.batch_us_p50", profile.p50_us(bayes));
        out.put(
            "estimators.bayescard.model_bytes",
            self.ests[1].model_size_bytes() as f64,
        );
        let est_own: f64 = KINDS.iter().map(|&(_, span)| profile.own_s(span)).sum();
        out.put("estimators.share", ratio(est_own, root));
        let max_kind = KINDS
            .iter()
            .map(|&(_, span)| profile.own_s(span))
            .fold(0.0, f64::max);
        out.put("estimators.max_kind_share", ratio(max_kind, root));
        out.put("sketch.estimate_us_p50", profile.p50_us(KINDS[2].1));
        out.put("sketch.share", ratio(profile.own_s(KINDS[2].1), root));

        // The pipeline's own glue: its span less the estimate closure
        // and less what the direct calls account for.
        let mut glue = profile.op_medians_ns(PLAN);
        let inside = KINDS
            .iter()
            .map(|&(_, span)| profile.op_medians_ns(span))
            .chain(HIDDEN.iter().map(|name| hidden.op_medians_ns(name)));
        for part in inside {
            for (op, ns) in part {
                *glue.get_mut(&op).expect("every op plans") -= ns;
            }
        }
        let glue: Vec<f64> = glue.into_values().map(|ns| ns.max(0.0)).collect();
        out.put("harness.plan_self_us_p50", median(&glue) / 1e3);
        out.put(
            "harness.overhead_share",
            ratio(glue.iter().sum::<f64>() / 1e9, root),
        );
        out.put("harness.est_failures", failures as f64);
        out.put("harness.fallback_subplans", fallbacks as f64);
        out.put("harness.clamped_subplans", clamped as f64);

        out.put("metrics.q_error_p50", percentile(&q_errors, 0.50));
        out.put("metrics.q_error_p95", percentile(&q_errors, 0.95));
        out.put("metrics.p_error_p90", percentile(&p_errors, 0.90));
    }
}
