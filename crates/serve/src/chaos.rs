//! ChaosServe: deterministic **service-level** fault injection.
//!
//! PR 3's `ChaosEst` injects faults per estimator *call*; this module
//! injects them per serving *tick* (coalesced or inline — one tick
//! counter for both) — the failure modes a serving layer
//! has that a batch harness cannot: a tick dying with other sessions'
//! jobs in hand, a tick wedging long enough to stall every live session,
//! and bursty estimator storms that should trip the circuit breaker
//! rather than make every request pay the doomed call's latency.
//!
//! Determinism mirrors `ChaosEst`'s recipe: each tick's fault decision
//! comes from a fresh `StdRng` seeded with `seed ^ mix(tick_index)`, so
//! a given `(seed, tick)` pair always faults the same way regardless of
//! what traffic landed in the tick. Storms are *stateful* (a storm
//! started at tick `t` runs through tick `t + storm_ticks - 1`) but the
//! state is derived purely from the tick counter, so two runs with the
//! same seed see the same storm schedule.
//!
//! Fault classes:
//! - **Panic** — the tick panics with its jobs in hand. The session
//!   that ran it catches the panic; the gathered jobs' reply senders
//!   drop, so each waiting session degrades its own slots to a typed
//!   hard failure (never a hang), and the lease moves on as after any
//!   tick. Budgeted by `max_panics` so runs terminate.
//! - **Slow** — the tick stalls for `slow_stall` before estimating:
//!   models a wedged estimator call. Stalls past
//!   `heartbeat_stale_after` get the tick taken over by a queued
//!   session; short ones just inflate tail latency.
//! - **Storm** — for `storm_ticks` consecutive ticks the estimator
//!   hard-faults every slot *after* paying `storm_stall` of latency.
//!   This is the breaker's reason to exist: requests served while the
//!   breaker still admits pay `storm_stall` and then degrade
//!   ("failed-then-degraded"); once it opens, slots short to the
//!   fallback instantly ("breaker-shorted").

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::Duration;

use cardbench_support::rand::rngs::StdRng;
use cardbench_support::rand::{Rng, SeedableRng};

/// Service-level fault schedule. All rates are per-tick probabilities
/// in `[0, 1]`; zero rates make the injector a no-op.
#[derive(Debug, Clone)]
pub struct ChaosServeConfig {
    /// Seed for the per-tick fault stream.
    pub seed: u64,
    /// Probability a tick panics (subject to `max_panics`).
    pub panic_rate: f64,
    /// Total tick panics allowed over the injector's lifetime.
    pub max_panics: u32,
    /// Probability a tick is a slow tick.
    pub slow_rate: f64,
    /// How long a slow tick stalls before estimating.
    pub slow_stall: Duration,
    /// Probability a tick *starts* a fault storm (ignored while one is
    /// already running).
    pub storm_rate: f64,
    /// Storm length in ticks.
    pub storm_ticks: u32,
    /// Latency each admitted (non-shorted) call pays during a storm
    /// before hard-faulting.
    pub storm_stall: Duration,
}

impl Default for ChaosServeConfig {
    fn default() -> ChaosServeConfig {
        ChaosServeConfig {
            seed: 0,
            panic_rate: 0.0,
            max_panics: 3,
            slow_rate: 0.0,
            slow_stall: Duration::from_millis(50),
            storm_rate: 0.0,
            storm_ticks: 32,
            storm_stall: Duration::from_millis(10),
        }
    }
}

/// What the injector decided for one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickFault {
    /// No injected fault: the tick runs normally.
    None,
    /// Panic with the tick's jobs in hand.
    Panic,
    /// Stall for the duration, then run the tick normally.
    Slow(Duration),
    /// The estimator is storming: pay the duration, then hard-fault
    /// every slot.
    Storm(Duration),
}

/// The runtime injector: one per server, consulted once per tick.
pub(crate) struct ChaosServe {
    cfg: ChaosServeConfig,
    /// Monotone tick counter, shared by every session's ticks.
    tick: AtomicU64,
    /// First tick index *past* the current storm (0 = no storm yet).
    storm_until: AtomicU64,
    /// Panics spent against `max_panics`.
    panics: AtomicU32,
}

impl ChaosServe {
    pub(crate) fn new(cfg: ChaosServeConfig) -> ChaosServe {
        ChaosServe {
            cfg,
            tick: AtomicU64::new(0),
            storm_until: AtomicU64::new(0),
            panics: AtomicU32::new(0),
        }
    }

    /// Advances the tick counter and returns this tick's fault. Fault
    /// classes are checked in severity order (panic > storm > slow) from
    /// one deterministic draw stream per tick.
    pub(crate) fn fault_for_tick(&self) -> TickFault {
        let tick = self.tick.fetch_add(1, Ordering::AcqRel);
        if tick < self.storm_until.load(Ordering::Acquire) {
            return TickFault::Storm(self.cfg.storm_stall);
        }
        // SplitMix64-style avalanche so consecutive ticks draw unrelated
        // streams even though `seed ^ tick` differs in one bit.
        let mut z = self.cfg.seed ^ tick.wrapping_mul(0x9e3779b97f4a7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        let mut rng = StdRng::seed_from_u64(z ^ (z >> 31));
        if self.cfg.panic_rate > 0.0 && rng.gen_bool(self.cfg.panic_rate) {
            let admitted = self
                .panics
                .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                    (n < self.cfg.max_panics).then_some(n + 1)
                });
            if admitted.is_ok() {
                return TickFault::Panic;
            }
        }
        if self.cfg.storm_rate > 0.0 && rng.gen_bool(self.cfg.storm_rate) {
            self.storm_until.store(
                tick + u64::from(self.cfg.storm_ticks.max(1)),
                Ordering::Release,
            );
            return TickFault::Storm(self.cfg.storm_stall);
        }
        if self.cfg.slow_rate > 0.0 && rng.gen_bool(self.cfg.slow_rate) {
            return TickFault::Slow(self.cfg.slow_stall);
        }
        TickFault::None
    }

    /// Tick panics injected so far.
    pub(crate) fn panics_injected(&self) -> u32 {
        self.panics.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm_cfg(seed: u64) -> ChaosServeConfig {
        ChaosServeConfig {
            seed,
            storm_rate: 0.1,
            storm_ticks: 4,
            panic_rate: 0.05,
            max_panics: 2,
            slow_rate: 0.1,
            ..ChaosServeConfig::default()
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = ChaosServe::new(storm_cfg(7));
        let b = ChaosServe::new(storm_cfg(7));
        let c = ChaosServe::new(storm_cfg(8));
        let fa: Vec<TickFault> = (0..256).map(|_| a.fault_for_tick()).collect();
        let fb: Vec<TickFault> = (0..256).map(|_| b.fault_for_tick()).collect();
        let fc: Vec<TickFault> = (0..256).map(|_| c.fault_for_tick()).collect();
        assert_eq!(fa, fb, "same seed must fault identically");
        assert_ne!(fa, fc, "different seed must fault differently");
        assert!(fa.iter().any(|f| matches!(f, TickFault::Storm(_))));
    }

    #[test]
    fn storms_run_contiguously() {
        let chaos = ChaosServe::new(ChaosServeConfig {
            seed: 3,
            storm_rate: 0.05,
            storm_ticks: 4,
            ..ChaosServeConfig::default()
        });
        let faults: Vec<TickFault> = (0..512).map(|_| chaos.fault_for_tick()).collect();
        let mut i = 0;
        let mut storms = 0;
        while i < faults.len() {
            if matches!(faults[i], TickFault::Storm(_)) {
                let burst = faults[i..]
                    .iter()
                    .take_while(|f| matches!(f, TickFault::Storm(_)))
                    .count();
                assert!(
                    burst >= 4.min(faults.len() - i),
                    "storm at {i} truncated to {burst}"
                );
                storms += 1;
                i += burst;
            } else {
                i += 1;
            }
        }
        assert!(storms > 0, "no storm fired in 512 ticks at 5%");
    }

    #[test]
    fn panic_budget_is_enforced() {
        let chaos = ChaosServe::new(ChaosServeConfig {
            seed: 11,
            panic_rate: 0.5,
            max_panics: 2,
            ..ChaosServeConfig::default()
        });
        let panics = (0..256)
            .filter(|_| chaos.fault_for_tick() == TickFault::Panic)
            .count();
        assert_eq!(panics, 2);
        assert_eq!(chaos.panics_injected(), 2);
    }

    #[test]
    fn zero_rates_never_fault() {
        let chaos = ChaosServe::new(ChaosServeConfig {
            seed: 42,
            ..ChaosServeConfig::default()
        });
        assert!((0..1024).all(|_| chaos.fault_for_tick() == TickFault::None));
    }
}
