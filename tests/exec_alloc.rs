//! Warm re-execution is allocation-free: once one `ExecScratch` has
//! executed every STATS-CEB plan the PostgreSQL, BayesCard and Sketch
//! estimators lead to, executing them all again performs no allocation
//! or reallocation of 64 KiB or more — and every plan's result and
//! `ExecStats` through that shared arena equal a fresh arena's.
//!
//! One test only: the counting allocator is process-wide, and a second
//! test thread would allocate into the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

use cardbench::datagen::stats_catalog;
use cardbench::engine::{
    execute, execute_with, CostModel, Database, ExecScratch, PhysicalPlan, TrueCardService,
};
use cardbench::estimators::lw::TrainingSet;
use cardbench::estimators::postgres::PostgresEst;
use cardbench::estimators::EstimatorKind;
use cardbench::harness::{build_estimator, estimate_all, plan_query_via, BenchConfig};
use cardbench::query::BoundQuery;
use cardbench::workload::stats_ceb;

/// Allocations at or above this size are the ones that page-fault when
/// they come back from the operating system.
const LARGE_BYTES: usize = 64 << 10;

static ARMED: AtomicBool = AtomicBool::new(false);
static LARGE_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting large requests while armed.
struct Counting;

fn note(size: usize) {
    if size >= LARGE_BYTES && ARMED.load(Ordering::Relaxed) {
        LARGE_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator
        // with this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn warm_sweep_of_ceb_plans_allocates_nothing_large() {
    let cfg = BenchConfig::standard(7);
    let db = Database::new(stats_catalog(&cfg.stats));
    let queries = stats_ceb(&db, &cfg.stats_workload);
    let truth = TrueCardService::new();
    let cost = CostModel::default();
    let fallback: OnceLock<PostgresEst> = OnceLock::new();
    let none = TrainingSet::default();

    let mut plans: Vec<(BoundQuery, PhysicalPlan, f64)> = Vec::new();
    for kind in [
        EstimatorKind::Postgres,
        EstimatorKind::BayesCard,
        EstimatorKind::Sketch,
    ] {
        let built = build_estimator(kind, &db, &none, &cfg.settings);
        for wq in &queries.queries {
            let planned = plan_query_via(
                &db,
                wq,
                &|subs| estimate_all(built.est.as_ref(), &db, subs, None),
                &truth,
                &cost,
                &fallback,
            );
            let (bound, plan) = planned.plan.expect("every STATS-CEB query plans");
            plans.push((bound, plan, wq.true_card));
        }
    }

    // Warm-up sweep, checked against a fresh arena per plan. It has to
    // allocate — which also shows that the counter counts.
    let mut scratch = ExecScratch::new();
    let mut warm = Vec::with_capacity(plans.len());
    ARMED.store(true, Ordering::Relaxed);
    for (bound, plan, true_card) in &plans {
        let reused = execute_with(plan, bound, &db, &mut scratch);
        assert_eq!(reused.0 as f64, *true_card);
        assert_eq!(reused, execute(plan, bound, &db), "fresh vs reused arena");
        warm.push(reused);
    }
    ARMED.store(false, Ordering::Relaxed);
    assert!(LARGE_ALLOCS.swap(0, Ordering::Relaxed) > 0);
    let retained = scratch.retained_bytes();
    assert!(retained > LARGE_BYTES as u64, "the arena holds the buffers");

    ARMED.store(true, Ordering::Relaxed);
    for ((bound, plan, _), first) in plans.iter().zip(&warm) {
        let again = execute_with(plan, bound, &db, &mut scratch);
        assert_eq!(&again, first);
    }
    ARMED.store(false, Ordering::Relaxed);

    assert_eq!(
        LARGE_ALLOCS.load(Ordering::Relaxed),
        0,
        "large allocations in the warm sweep"
    );
    assert_eq!(scratch.retained_bytes(), retained, "the arena grew");
}
