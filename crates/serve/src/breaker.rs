//! Per-estimator circuit breaker in front of the coalescer's guarded
//! batch call.
//!
//! The paper's practical finding is that learned estimators are the
//! unstable component of the stack: they panic, wedge, and time out in
//! bursts. Without a breaker, every request that lands during such a
//! burst pays the doomed call's full latency *before* degrading to the
//! PostgreSQL baseline ("failed, then degraded"). The breaker watches a
//! rolling window of per-slot hard-fault outcomes and, once the rate
//! crosses a threshold, **opens**: subsequent slots are shorted straight
//! to the shared fallback with a typed [`EstimateError::Shorted`],
//! skipping the estimator entirely. After a cooldown the breaker goes
//! **half-open** and admits a single probe tick; a clean probe closes
//! the circuit, a faulted one re-opens it.
//!
//! State machine (classic closed → open → half-open):
//!
//! ```text
//!   Closed --(hard-fault rate ≥ threshold over ≥ min_samples)--> Open
//!   Open   --(cooldown elapsed, next admission)--> HalfOpen (one probe)
//!   HalfOpen --(probe clean)--> Closed        (window reset)
//!   HalfOpen --(probe faulted)--> Open        (cooldown restarts)
//! ```
//!
//! Bit-identity: with a healthy estimator the breaker only *observes*
//! (every admission returns [`Admission::Estimate`]), so breaker-enabled
//! serving is bit-identical to the breaker-free service — the serve
//! differential tests run with the breaker enabled by default and pin
//! exactly that.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use cardbench_obs::{counter_add, gauge_set};

/// Breaker tuning. Defaults are sized for serving ticks of tens of
/// slots: roughly one bad tick opens nothing, a sustained storm opens
/// within a window's worth of slots.
#[derive(Debug, Clone)]
pub struct BreakerConfig {
    /// Rolling window size in sub-plan slots.
    pub window: usize,
    /// Hard-fault fraction over the window that opens the breaker.
    pub open_threshold: f64,
    /// Minimum slots observed before the rate is trusted at all.
    pub min_samples: usize,
    /// How long the breaker stays open before admitting a probe.
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            window: 64,
            open_threshold: 0.5,
            min_samples: 16,
            cooldown: Duration::from_millis(250),
        }
    }
}

/// Where the circuit is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: every call goes to the estimator.
    Closed,
    /// Tripped: every slot is shorted to the fallback.
    Open,
    /// Cooldown elapsed: one probe call is in flight, everyone else is
    /// still shorted until it reports back.
    HalfOpen,
}

impl BreakerState {
    /// Stable label (metrics and reports).
    pub fn name(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }

    /// Gauge encoding: 0 closed, 1 half-open, 2 open.
    fn gauge(self) -> f64 {
        match self {
            BreakerState::Closed => 0.0,
            BreakerState::HalfOpen => 1.0,
            BreakerState::Open => 2.0,
        }
    }
}

/// What the caller should do with a batch it wants to estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Run the real estimator call (and report back via
    /// [`Breaker::record`]).
    Estimate,
    /// Skip the call: answer every slot with
    /// [`EstimateError::Shorted`](cardbench_harness::EstimateError) and
    /// let the planner substitute the shared fallback.
    Short,
}

/// Counters and state for reports and tests. All counts are
/// server-local (the obs registry mirrors them globally when tracing is
/// enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BreakerStats {
    /// Closed→Open and HalfOpen→Open transitions.
    pub opens: u64,
    /// HalfOpen→Closed transitions.
    pub closes: u64,
    /// Open→HalfOpen transitions (probe admissions).
    pub half_opens: u64,
    /// Slots answered without calling the estimator.
    pub shorted_slots: u64,
    /// Slots observed through real calls (hard or clean).
    pub observed_slots: u64,
}

struct Inner {
    state: BreakerState,
    /// Rolling per-slot outcomes: `true` = hard fault. A `VecDeque`
    /// bounded at `window`; `hard` tracks the current count so the rate
    /// check is O(1) per slot.
    ring: std::collections::VecDeque<bool>,
    hard: usize,
    /// When the breaker last opened (drives the cooldown).
    opened_at: Instant,
    /// A half-open probe is in flight: concurrent admissions short.
    probe_inflight: bool,
    stats: BreakerStats,
}

/// The breaker itself: interior-mutable so ticks on every session
/// thread can share one per served estimator.
pub struct Breaker {
    cfg: BreakerConfig,
    method: &'static str,
    inner: Mutex<Inner>,
}

impl Breaker {
    /// A closed breaker for the estimator named `method` (the metric
    /// label).
    pub fn new(cfg: BreakerConfig, method: &'static str) -> Breaker {
        Breaker {
            cfg,
            method,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                ring: std::collections::VecDeque::new(),
                hard: 0,
                opened_at: Instant::now(),
                probe_inflight: false,
                stats: BreakerStats::default(),
            }),
        }
    }

    /// Decides what to do with a batch of `slots` estimates at `now`.
    /// Open→HalfOpen happens here once the cooldown elapses; callers
    /// granted [`Admission::Estimate`] MUST follow up with
    /// [`Breaker::record`] (a half-open probe that never reports would
    /// wedge the circuit half-open).
    pub fn admit(&self, now: Instant, slots: usize) -> Admission {
        let mut g = self.lock();
        match g.state {
            BreakerState::Closed => Admission::Estimate,
            BreakerState::Open => {
                if now.duration_since(g.opened_at) >= self.cfg.cooldown {
                    g.state = BreakerState::HalfOpen;
                    g.probe_inflight = true;
                    g.stats.half_opens += 1;
                    self.note_transition(&mut g, "half_open");
                    Admission::Estimate
                } else {
                    self.short(&mut g, slots)
                }
            }
            BreakerState::HalfOpen => {
                if g.probe_inflight {
                    self.short(&mut g, slots)
                } else {
                    // The previous probe resolved (clean probes close
                    // the circuit, faulted ones re-open it, so an idle
                    // half-open state only exists transiently).
                    g.probe_inflight = true;
                    Admission::Estimate
                }
            }
        }
    }

    /// Reports the outcome of a real estimator call: `total` slots, of
    /// which `hard` hard-faulted (panic/timeout). Drives every state
    /// transition that follows from observed behaviour.
    pub fn record(&self, now: Instant, total: usize, hard: usize) {
        if total == 0 {
            return;
        }
        let mut g = self.lock();
        g.stats.observed_slots += total as u64;
        for i in 0..total {
            let is_hard = i < hard;
            if g.ring.len() == self.cfg.window.max(1) && g.ring.pop_front() == Some(true) {
                g.hard -= 1;
            }
            g.ring.push_back(is_hard);
            g.hard += usize::from(is_hard);
        }
        match g.state {
            BreakerState::Closed => {
                let n = g.ring.len();
                if n >= self.cfg.min_samples.max(1)
                    && g.hard as f64 >= self.cfg.open_threshold * n as f64
                {
                    g.state = BreakerState::Open;
                    g.opened_at = now;
                    g.stats.opens += 1;
                    self.note_transition(&mut g, "open");
                }
            }
            BreakerState::HalfOpen => {
                g.probe_inflight = false;
                if hard == 0 {
                    g.state = BreakerState::Closed;
                    g.ring.clear();
                    g.hard = 0;
                    g.stats.closes += 1;
                    self.note_transition(&mut g, "closed");
                } else {
                    g.state = BreakerState::Open;
                    g.opened_at = now;
                    g.stats.opens += 1;
                    self.note_transition(&mut g, "open");
                }
            }
            // A racing record against an already-open breaker (e.g. a
            // slow tick that started before the trip) just feeds the
            // window; the circuit stays open until its cooldown.
            BreakerState::Open => {}
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.lock().state
    }

    /// Counter snapshot.
    pub fn stats(&self) -> BreakerStats {
        self.lock().stats
    }

    fn short(&self, g: &mut Inner, slots: usize) -> Admission {
        g.stats.shorted_slots += slots as u64;
        counter_add(
            "cardbench_serve_breaker_shorted_total",
            &[("method", self.method)],
            slots as u64,
        );
        Admission::Short
    }

    fn note_transition(&self, g: &mut Inner, to: &'static str) {
        counter_add(
            "cardbench_serve_breaker_transitions_total",
            &[("method", self.method), ("to", to)],
            1,
        );
        gauge_set(
            "cardbench_serve_breaker_state",
            &[("method", self.method)],
            g.state.gauge(),
        );
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panicking tick can poison this lock mid-update; the
        // breaker's state is a heuristic, so recover rather than wedge.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            window: 8,
            open_threshold: 0.5,
            min_samples: 4,
            cooldown: Duration::from_millis(10),
        }
    }

    #[test]
    fn healthy_traffic_never_trips() {
        let b = Breaker::new(cfg(), "Test");
        let t0 = Instant::now();
        for _ in 0..100 {
            assert_eq!(b.admit(t0, 4), Admission::Estimate);
            b.record(t0, 4, 0);
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats().opens, 0);
        assert_eq!(b.stats().shorted_slots, 0);
    }

    #[test]
    fn storm_opens_then_probe_closes() {
        let b = Breaker::new(cfg(), "Test");
        let t0 = Instant::now();
        // A 100% hard-fault burst: opens at min_samples.
        assert_eq!(b.admit(t0, 4), Admission::Estimate);
        b.record(t0, 4, 4);
        assert_eq!(b.state(), BreakerState::Open);
        // While open (inside cooldown): shorted.
        assert_eq!(b.admit(t0, 3), Admission::Short);
        assert_eq!(b.stats().shorted_slots, 3);
        // Cooldown elapsed: one probe admitted, siblings still shorted.
        let later = t0 + Duration::from_millis(20);
        assert_eq!(b.admit(later, 2), Admission::Estimate);
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert_eq!(b.admit(later, 2), Admission::Short);
        // Clean probe: closed, window reset.
        b.record(later, 2, 0);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.stats().closes, 1);
        // Fresh faults need a full min_samples again.
        b.record(later, 2, 2);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn faulted_probe_reopens() {
        let b = Breaker::new(cfg(), "Test");
        let t0 = Instant::now();
        b.record(t0, 8, 8);
        assert_eq!(b.state(), BreakerState::Open);
        let later = t0 + Duration::from_millis(20);
        assert_eq!(b.admit(later, 1), Admission::Estimate);
        b.record(later, 1, 1);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.stats().opens, 2);
        // The cooldown restarted at the failed probe: still shorted now.
        assert_eq!(b.admit(later, 1), Admission::Short);
        // ... and probed again after another cooldown.
        let much_later = later + Duration::from_millis(20);
        assert_eq!(b.admit(much_later, 1), Admission::Estimate);
        b.record(much_later, 1, 0);
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn rate_below_threshold_stays_closed() {
        let b = Breaker::new(cfg(), "Test");
        let t0 = Instant::now();
        // 3/8 hard over the full window: under the 0.5 threshold.
        b.record(t0, 8, 3);
        assert_eq!(b.state(), BreakerState::Closed);
        // The window rolls: old faults age out as clean slots arrive.
        b.record(t0, 8, 0);
        b.record(t0, 8, 4); // 4/8 in the window now → trips.
        assert_eq!(b.state(), BreakerState::Open);
    }
}
