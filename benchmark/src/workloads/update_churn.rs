//! `update_churn`: writes beside reads on the two layers `infer_zoo`
//! only reads, on one thread. An op is one churn round: stream a 256-row
//! slice of the `temporal_split` delta into the sketch, record one
//! query's executed truths in the feedback store, estimate that query's
//! sub-plans on the sketch with every value resolved through the store
//! (what `FeedbackEst` does, spelled out because the round must keep
//! `&mut` access to the sketch), and stream the same slice out again.
//! Every round has the same composition, and the sketch's state digest
//! is back at its pass-start value when a pass ends. Chosen so a faster
//! read path that costs the streaming-update path, or the reverse,
//! shows, and for Table 6-style refresh work.

use std::time::Instant;

use cardbench_datagen::stats::{temporal_split, SPLIT_DAY};
use cardbench_engine::{Database, TrueCardService};
use cardbench_estimators::CardEst;
use cardbench_feedback::FeedbackStore;
use cardbench_query::SubPlanQuery;
use cardbench_sketch::SketchEst;
use cardbench_storage::Table;

use super::{
    ceb_queries, config, ratio, shuffle, stats_data, subplans, timed, Layers, Pass, SetupClock,
    Workload,
};
use crate::reduce::Digest;
use crate::trace::{Profile, Tracer, OP};

/// Three rounds per query of the 146-query workload.
const ROUNDS_PER_QUERY: usize = 3;
const SLICE_ROWS: usize = 256;

const INSERT: &str = "sketch.apply_inserts";
const DELETE: &str = "sketch.apply_deletes";
const ESTIMATE: &str = "sketch.estimate_batch";
const OBSERVE: &str = "feedback.observe_subplans";
const APPLY: &str = "feedback.apply";

/// One query as the rounds use it.
struct Target {
    hash: u64,
    subs: Vec<SubPlanQuery>,
    /// What the planner saw before the run: the stale sketch's estimates.
    ests: Vec<f64>,
    truths: Vec<f64>,
}

struct Round {
    target: usize,
    /// First delta row of the slice, for the digest.
    first_row: usize,
    /// The slice, one (mostly empty) table per catalog table.
    slice: Vec<Table>,
}

pub struct UpdateChurn {
    tracer: &'static Tracer,
    stale: Database,
    sketch: SketchEst,
    targets: Vec<Target>,
    rounds: Vec<Round>,
}

/// Rows `first..first + SLICE_ROWS` of the delta laid end to end, table
/// after table, wrapping at the end.
fn slice_of(delta: &[Table], first: usize) -> Vec<Table> {
    let total: usize = delta.iter().map(Table::row_count).sum();
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); delta.len()];
    for k in 0..SLICE_ROWS {
        let mut row = (first + k) % total;
        for (t, table) in delta.iter().enumerate() {
            if row < table.row_count() {
                rows[t].push(row);
                break;
            }
            row -= table.row_count();
        }
    }
    delta
        .iter()
        .zip(&rows)
        .map(|(table, rows)| table.take_rows(rows))
        .collect()
}

impl Workload for UpdateChurn {
    const NAME: &'static str = "update_churn";
    const THREADS: usize = 1;
    const OPS: usize = 438;
    const PASSES: usize = 165;

    fn setup(seed: u64, clock: &mut SetupClock, tracer: &'static Tracer) -> UpdateChurn {
        let cfg = config();
        let full = Database::new(stats_data(&cfg, clock));
        let wl = ceb_queries(&full, &cfg, clock);
        let (stale, delta) = temporal_split(full.catalog(), SPLIT_DAY);
        let stale = Database::new(stale);
        let mut sketch = timed(&mut clock.sketch_fit_s, || {
            SketchEst::fit(&stale, &cfg.settings.sketch)
        });
        clock.sketch_fit_rows += stale.catalog().total_rows() as f64;
        // Deletes reverse the counts exactly, but distinct counts and
        // observed bounds keep their high-water marks. Streaming the
        // whole delta in and out once raises them to where the rounds
        // can no longer move them, so the state digest repeats from the
        // first pass on.
        sketch.apply_inserts(&stale, &delta);
        sketch.apply_deletes(&delta);

        // Executed truths are those of the full data, as after a refresh.
        let truth = TrueCardService::new();
        let targets: Vec<Target> = timed(&mut clock.workload_s, || {
            wl.queries
                .iter()
                .map(|wq| {
                    let (_, subs) = subplans(&full, &wq.query);
                    let truths = truth
                        .cardinalities_for_subplans(&full, &wq.query, &subs)
                        .expect("workload queries have truths")
                        .into_iter()
                        .map(|(_, t)| t)
                        .collect();
                    Target {
                        hash: wq.query.canonical_hash(),
                        ests: sketch.estimate_batch(&stale, &subs),
                        subs,
                        truths,
                    }
                })
                .collect()
        });

        // Round `r` pairs query `r mod 146` with the `r`-th slice of
        // the delta, whatever the seed: every seed runs the same rounds,
        // so the tail of the latency distribution holds the same ops,
        // and the seed decides their order only.
        let total: usize = delta.iter().map(Table::row_count).sum();
        let mut rounds: Vec<Round> = (0..targets.len() * ROUNDS_PER_QUERY)
            .map(|r| {
                let first_row = r * SLICE_ROWS % total;
                Round {
                    target: r % targets.len(),
                    first_row,
                    slice: slice_of(&delta, first_row),
                }
            })
            .collect();
        shuffle(&mut rounds, seed);
        UpdateChurn {
            tracer,
            stale,
            sketch,
            targets,
            rounds,
        }
    }

    fn ops(&self) -> usize {
        self.rounds.len()
    }

    fn digest(&self) -> u64 {
        let mut d = Digest::new();
        for round in &self.rounds {
            d.word(self.targets[round.target].hash);
            d.word(round.first_row as u64);
        }
        d.0
    }

    fn pass(&mut self, _full_checks: bool) -> Pass {
        let tr = self.tracer;
        let mut pass = Pass::new(self.rounds.len());
        // A fresh store per pass: every pass does the same work,
        // first-observation path included.
        let store = FeedbackStore::default();
        let at_start = self.sketch.state_digest();
        let start = Instant::now();
        for (i, round) in self.rounds.iter().enumerate() {
            let target = &self.targets[round.target];
            let t0 = Instant::now();
            let root = tr.op(OP, i as u32);
            {
                let _s = tr.span(INSERT);
                self.sketch.apply_inserts(&self.stale, &round.slice);
            }
            {
                let _s = tr.span(OBSERVE);
                store.observe_subplans(&target.subs, &target.ests, &target.truths);
            }
            let raw = {
                let _s = tr.span(ESTIMATE);
                self.sketch.estimate_batch(&self.stale, &target.subs)
            };
            let resolved: Vec<f64> = {
                let _s = tr.span(APPLY);
                target
                    .subs
                    .iter()
                    .zip(&raw)
                    .map(|(sub, &inner)| store.apply(&sub.query, inner))
                    .collect()
            };
            {
                let _s = tr.span(DELETE);
                self.sketch.apply_deletes(&round.slice);
            }
            drop(root);
            let took = t0.elapsed();
            // Every sub-plan was just observed, so every lookup is an
            // exact hit and must return the observed truth.
            let hit = resolved
                .iter()
                .zip(&target.truths)
                .all(|(got, truth)| got.to_bits() == truth.to_bits());
            pass.record(
                i,
                took,
                if hit {
                    Ok(())
                } else {
                    Err("an exact feedback hit did not return the observed truth".to_string())
                },
            );
        }
        pass.wall = start.elapsed();
        if self.sketch.state_digest() != at_start {
            pass.errors
                .push("the sketch's state digest did not return to its pass-start value".into());
        }
        std::hint::black_box(store.stats());
        pass
    }

    fn layers(&mut self, profile: &Profile, out: &mut Layers) {
        let root = profile.busy_s(OP);
        let rows = (self.rounds.len() * SLICE_ROWS) as f64;
        let subplans: usize = self
            .rounds
            .iter()
            .map(|r| self.targets[r.target].subs.len())
            .sum();
        // Feedback lookups of one pass, on a store of their own.
        let store = FeedbackStore::default();
        for round in &self.rounds {
            let t = &self.targets[round.target];
            store.observe_subplans(&t.subs, &t.ests, &t.truths);
            for (sub, &inner) in t.subs.iter().zip(&t.ests) {
                std::hint::black_box(store.apply(&sub.query, inner));
            }
        }
        let stats = store.stats();

        out.put(
            "sketch.apply_inserts_rows_per_s",
            ratio(rows, profile.busy_s(INSERT)),
        );
        out.put(
            "sketch.apply_deletes_rows_per_s",
            ratio(rows, profile.busy_s(DELETE)),
        );
        out.put("sketch.estimate_us_p50", profile.p50_us(ESTIMATE));
        out.put("sketch.share", ratio(profile.layer_own_s("sketch"), root));
        out.put(
            "feedback.observe_subplans_per_s",
            ratio(subplans as f64, profile.busy_s(OBSERVE)),
        );
        out.put("feedback.apply_us_p50", profile.p50_us(APPLY));
        out.put(
            "feedback.hit_ratio",
            ratio(stats.hits as f64, (stats.hits + stats.misses) as f64),
        );
        out.put(
            "feedback.share",
            ratio(profile.layer_own_s("feedback"), root),
        );
    }
}
