//! The metric registry: counters, gauges, and latency histograms under
//! one roof, keyed by `(family, labels)` exactly as in the Prometheus
//! data model.
//!
//! The registry unifies what used to be ad-hoc counter plumbing
//! (`ExecStats` operator counters, the harness's clamp / fallback /
//! failure tallies) with new instrumentation (per-estimator
//! estimate-latency histograms). Hot paths keep their existing plain
//! struct counters — the harness folds them into the registry in bulk at
//! run boundaries, so the mutex here is taken a handful of times per
//! workload, never per row.
//!
//! Every recording entry point is a no-op while recording is disabled
//! (one relaxed atomic load, shared with the span switch).

use std::collections::BTreeMap;
use std::sync::Mutex;

use crate::span::enabled;

/// Label set: `(key, value)` pairs. Kept sorted by construction at call
/// sites (callers pass them in a fixed order), compared verbatim.
pub type Labels = Vec<(&'static str, String)>;

/// Histogram bucket upper bounds for latency observations, in seconds.
/// A 1µs–10s log-ish ladder: wide enough for estimator inference (sub-µs
/// to seconds) and plan execution.
pub const LATENCY_BUCKETS: [f64; 15] = [
    1e-6, 2.5e-6, 1e-5, 2.5e-5, 1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 1e-1, 2.5e-1, 1.0, 2.5,
    10.0,
];

/// A cumulative histogram over [`LATENCY_BUCKETS`] plus an implicit
/// `+Inf` bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Per-bucket observation counts (`buckets[i]` counts observations
    /// `<= LATENCY_BUCKETS[i]`, non-cumulative storage).
    pub buckets: [u64; LATENCY_BUCKETS.len()],
    /// Observations above the last bound.
    pub overflow: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total observation count.
    pub count: u64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: [0; LATENCY_BUCKETS.len()],
            overflow: 0,
            sum: 0.0,
            count: 0,
        }
    }

    fn observe(&mut self, v: f64) {
        // NaN observations are dropped, not propagated: a histogram sum
        // poisoned by one NaN estimate would be exactly the bug class
        // the metric layer just fixed.
        if v.is_nan() {
            return;
        }
        match LATENCY_BUCKETS.iter().position(|&b| v <= b) {
            Some(i) => self.buckets[i] += 1,
            None => self.overflow += 1,
        }
        self.sum += v;
        self.count += 1;
    }

    /// Estimated value at quantile `p` (`0.0..=1.0`), Prometheus
    /// `histogram_quantile` style: find the bucket where the cumulative
    /// count crosses `p × count` and interpolate linearly between its
    /// bounds. Comparisons go through [`f64::total_cmp`], so a NaN `p`
    /// yields NaN (never a spurious bucket) and the aggregate totals
    /// stay NaN-proof like the metric crate's percentile — `observe`
    /// already drops NaN samples at the door.
    ///
    /// Returns NaN for an empty histogram or a NaN `p`; `p` is clamped
    /// to `[0, 1]` otherwise. Observations above the last bound resolve
    /// to the last finite bound (the `+Inf` bucket has no width to
    /// interpolate into), so tail quantiles are a lower bound there —
    /// the same convention Prometheus uses.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 || p.is_nan() {
            return f64::NAN;
        }
        let p = p.clamp(0.0, 1.0);
        let target = p * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let next = cum + n;
            if (next as f64).total_cmp(&target).is_ge() {
                let lo = if i == 0 { 0.0 } else { LATENCY_BUCKETS[i - 1] };
                let hi = LATENCY_BUCKETS[i];
                let within = ((target - cum as f64) / n as f64).clamp(0.0, 1.0);
                return lo + within * (hi - lo);
            }
            cum = next;
        }
        // Only the overflow bucket remains.
        LATENCY_BUCKETS[LATENCY_BUCKETS.len() - 1]
    }

    /// [`Histogram::percentile`] for several quantiles at once, in input
    /// order (the p50/p95/p99 extraction the serving layer reports).
    pub fn percentiles(&self, ps: &[f64]) -> Vec<f64> {
        ps.iter().map(|&p| self.percentile(p)).collect()
    }
}

/// What a metric family is (drives the Prometheus `# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Latency histogram.
    Histogram,
}

#[derive(Default)]
struct Registry {
    counters: BTreeMap<(&'static str, Labels), u64>,
    gauges: BTreeMap<(&'static str, Labels), f64>,
    histograms: BTreeMap<(&'static str, Labels), Histogram>,
}

static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

fn with_registry(f: impl FnOnce(&mut Registry)) {
    let mut guard = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    f(guard.get_or_insert_with(Registry::default));
}

/// Adds `v` to the counter `family{labels}`. No-op while disabled.
pub fn counter_add(family: &'static str, labels: &[(&'static str, &str)], v: u64) {
    if !enabled() || v == 0 {
        return;
    }
    let labels = own(labels);
    with_registry(|r| *r.counters.entry((family, labels)).or_insert(0) += v);
}

/// Sets the gauge `family{labels}`. No-op while disabled.
pub fn gauge_set(family: &'static str, labels: &[(&'static str, &str)], v: f64) {
    if !enabled() {
        return;
    }
    let labels = own(labels);
    with_registry(|r| {
        r.gauges.insert((family, labels), v);
    });
}

/// Raises the gauge `family{labels}` to `v` if `v` is larger (peak
/// tracking). No-op while disabled.
pub fn gauge_max(family: &'static str, labels: &[(&'static str, &str)], v: f64) {
    if !enabled() {
        return;
    }
    let labels = own(labels);
    with_registry(|r| {
        let g = r.gauges.entry((family, labels)).or_insert(f64::MIN);
        if v > *g {
            *g = v;
        }
    });
}

/// Records one observation (seconds) into the histogram
/// `family{labels}`. No-op while disabled.
pub fn observe_secs(family: &'static str, labels: &[(&'static str, &str)], secs: f64) {
    if !enabled() {
        return;
    }
    let labels = own(labels);
    with_registry(|r| {
        r.histograms
            .entry((family, labels))
            .or_insert_with(Histogram::new)
            .observe(secs);
    });
}

fn own(labels: &[(&'static str, &str)]) -> Labels {
    labels.iter().map(|&(k, v)| (k, v.to_string())).collect()
}

/// A point-in-time copy of the registry, for exporters and tests.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Counter series.
    pub counters: Vec<(&'static str, Labels, u64)>,
    /// Gauge series.
    pub gauges: Vec<(&'static str, Labels, f64)>,
    /// Histogram series.
    pub histograms: Vec<(&'static str, Labels, Histogram)>,
}

/// Snapshots every metric series recorded so far (sorted by family then
/// labels — `BTreeMap` order — so exports are stable).
pub fn snapshot() -> RegistrySnapshot {
    let guard = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    let Some(r) = guard.as_ref() else {
        return RegistrySnapshot::default();
    };
    RegistrySnapshot {
        counters: r
            .counters
            .iter()
            .map(|((f, l), v)| (*f, l.clone(), *v))
            .collect(),
        gauges: r
            .gauges
            .iter()
            .map(|((f, l), v)| (*f, l.clone(), *v))
            .collect(),
        histograms: r
            .histograms
            .iter()
            .map(|((f, l), v)| (*f, l.clone(), v.clone()))
            .collect(),
    }
}

/// Serializes tests (across this crate's modules) that touch the global
/// registry or the enabled switch.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// Clears the global registry (test-only).
#[cfg(test)]
pub(crate) fn test_reset() {
    let mut guard = REGISTRY.lock().unwrap_or_else(|p| p.into_inner());
    *guard = None;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::set_enabled;
    use std::sync::MutexGuard;

    fn serial() -> MutexGuard<'static, ()> {
        test_lock()
    }

    fn reset() {
        test_reset();
    }

    #[test]
    fn disabled_records_nothing() {
        let _g = serial();
        set_enabled(false);
        reset();
        counter_add("c_total", &[], 3);
        gauge_set("g", &[], 1.0);
        observe_secs("h_seconds", &[], 0.5);
        let s = snapshot();
        assert!(s.counters.is_empty() && s.gauges.is_empty() && s.histograms.is_empty());
    }

    #[test]
    fn percentile_interpolates_within_buckets() {
        let mut h = Histogram::new();
        // 100 observations spread across the 1e-3 bucket (bounds
        // (2.5e-4, 1e-3]): p50 lands mid-bucket by interpolation.
        for _ in 0..100 {
            h.observe(5e-4);
        }
        let p50 = h.percentile(0.5);
        let lo = 2.5e-4;
        let hi = 1e-3;
        assert!((p50 - (lo + 0.5 * (hi - lo))).abs() < 1e-12, "p50={p50}");
        // p1.0 is the bucket's upper bound exactly.
        assert!((h.percentile(1.0) - hi).abs() < 1e-12);
        // p0 clamps to the bucket's lower bound.
        assert!((h.percentile(0.0) - lo).abs() < 1e-12);
    }

    #[test]
    fn percentile_spans_buckets_and_overflow() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.observe(5e-7); // first bucket (<= 1e-6)
        }
        for _ in 0..10 {
            h.observe(100.0); // overflow (> 10s)
        }
        assert!(h.percentile(0.5) <= 1e-6);
        // Tail quantile in the overflow bucket resolves to the last
        // finite bound.
        let last = LATENCY_BUCKETS[LATENCY_BUCKETS.len() - 1];
        assert_eq!(h.percentile(0.99), last);
        assert_eq!(h.percentiles(&[0.5, 0.95, 0.99])[2], last);
    }

    #[test]
    fn percentile_nan_safety() {
        let empty = Histogram::new();
        assert!(empty.percentile(0.5).is_nan());
        let mut h = Histogram::new();
        h.observe(f64::NAN); // dropped
        assert!(h.percentile(0.5).is_nan(), "NaN-only histogram is empty");
        h.observe(1e-5);
        assert!(h.percentile(f64::NAN).is_nan(), "NaN quantile yields NaN");
        assert!(!h.percentile(0.5).is_nan());
        // Out-of-range quantiles clamp instead of panicking.
        assert!(h.percentile(-3.0) >= 0.0);
        assert!(h.percentile(7.0) <= LATENCY_BUCKETS[LATENCY_BUCKETS.len() - 1]);
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let _g = serial();
        set_enabled(true);
        reset();
        counter_add("c_total", &[("m", "PG")], 2);
        counter_add("c_total", &[("m", "PG")], 3);
        counter_add("c_total", &[("m", "TC")], 1);
        gauge_max("peak", &[], 10.0);
        gauge_max("peak", &[], 4.0);
        observe_secs("lat_seconds", &[("m", "PG")], 3e-6);
        observe_secs("lat_seconds", &[("m", "PG")], 100.0);
        observe_secs("lat_seconds", &[("m", "PG")], f64::NAN);
        set_enabled(false);
        let s = snapshot();
        assert_eq!(s.counters.len(), 2);
        assert_eq!(s.counters[0].2, 5);
        assert_eq!(s.gauges[0].2, 10.0);
        let h = &s.histograms[0].2;
        assert_eq!(h.count, 2, "NaN observation must be dropped");
        assert_eq!(h.overflow, 1);
        assert!((h.sum - 100.000003).abs() < 1e-6);
        reset();
    }
}
