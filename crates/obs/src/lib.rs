//! Observability for the cardbench workspace: hierarchical wall-clock
//! **spans**, a **metric registry** (counters, gauges, histograms), and
//! **exporters** (Chrome `trace_event` JSON for `chrome://tracing` /
//! Perfetto, Prometheus text exposition).
//!
//! The subsystem is built around two constraints the benchmark imposes:
//!
//! - **Zero overhead when disabled.** Recording is off by default; every
//!   entry point first checks one relaxed atomic load and returns
//!   immediately. Nothing allocates, no clock is read, no lock is taken.
//! - **Determinism-safe when enabled.** Recording only *observes*:
//!   span timestamps and metric values never feed back into estimates,
//!   plan choice, or executed results, so a traced run produces
//!   bit-identical benchmark output to an untraced one (asserted by the
//!   harness's resume-equality tests, which pass with tracing on).
//!
//! Span records accumulate in per-thread buffers (no lock on the record
//! path) that drain into a process-wide sink when a thread exits or an
//! exporter runs. The harness's planning workers are joined by
//! `support::par::map` before it returns, so they have flushed by the
//! end of each parallel phase.
//!
//! The span hierarchy the harness emits:
//!
//! ```text
//! run > estimator > workload > {plan > estimate/optimize, execute > join/scan}
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod export;
pub mod metrics;
pub mod span;

pub use export::{chrome_trace, prometheus, prometheus_snapshot, write_trace};
pub use metrics::{
    counter_add, gauge_max, gauge_set, observe_secs, snapshot, Histogram, MetricKind,
    RegistrySnapshot, LATENCY_BUCKETS,
};
pub use span::{drain_spans, enabled, set_enabled, span, span_with, Span, SpanRecord};
