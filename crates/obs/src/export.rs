//! Exporters: Chrome `trace_event` JSON (loadable in `chrome://tracing`
//! or [Perfetto](https://ui.perfetto.dev)) and Prometheus text
//! exposition.
//!
//! [`write_trace`] is the one-call exporter the `cardbench` binary uses for
//! `--trace <path>`: it drains the span sink, snapshots the registry,
//! and writes `<path>` (the trace profile) plus `<path>.prom` (the
//! metrics dump). Draining accumulates across calls, so a binary that
//! exports mid-run and again at exit ends up with the full profile.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use cardbench_support::json::Json;

use crate::metrics::{snapshot, RegistrySnapshot, LATENCY_BUCKETS};
use crate::span::{drain_spans, SpanRecord};

/// Renders spans as a Chrome `trace_event` JSON document: one complete
/// (`"ph":"X"`) event per span with microsecond timestamps, plus
/// thread-name metadata. Hierarchy is (thread, time-containment), which
/// is how trace viewers nest `X` events; each event also carries its
/// recorded `depth` in `args` so tools (and CI validation) can check
/// nesting without re-deriving it.
pub fn chrome_trace(spans: &[SpanRecord]) -> String {
    let mut events: Vec<Json> = Vec::with_capacity(spans.len() + 8);
    let mut tids: Vec<u64> = spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        events.push(Json::object([
            ("ph", Json::String("M".into())),
            ("name", Json::String("thread_name".into())),
            ("pid", Json::Number(1.0)),
            ("tid", Json::Number(tid as f64)),
            (
                "args",
                Json::object([(
                    "name",
                    Json::String(if tid == 0 {
                        "main".to_string()
                    } else {
                        format!("worker-{tid}")
                    }),
                )]),
            ),
        ]));
    }
    for s in spans {
        let mut args = vec![("depth".to_string(), Json::Number(s.depth as f64))];
        if let Some(l) = &s.label {
            args.push(("label".to_string(), Json::String(l.clone())));
        }
        events.push(Json::object([
            ("ph", Json::String("X".into())),
            ("name", Json::String(s.name.into())),
            ("cat", Json::String(s.cat.into())),
            ("pid", Json::Number(1.0)),
            ("tid", Json::Number(s.tid as f64)),
            ("ts", Json::Number(s.start_ns as f64 / 1e3)),
            ("dur", Json::Number(s.dur_ns as f64 / 1e3)),
            ("args", Json::Object(args.into_iter().collect())),
        ]));
    }
    Json::object([
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", Json::String("ms".into())),
    ])
    .pretty()
}

/// Renders a registry snapshot in the Prometheus text exposition format
/// (`# TYPE` per family, one sample per series, histogram `_bucket` /
/// `_sum` / `_count` expansion with cumulative `le` buckets).
pub fn prometheus(snap: &RegistrySnapshot) -> String {
    use std::fmt::Write as _;
    let fmt_labels = |labels: &[(&'static str, String)], extra: Option<(&str, String)>| -> String {
        let mut parts: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", v.replace('"', "\\\"")))
            .collect();
        if let Some((k, v)) = extra {
            parts.push(format!("{k}=\"{v}\""));
        }
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    };
    let mut out = String::new();
    let mut last_family = "";
    let mut type_line = |out: &mut String, family: &'static str, kind: &str| {
        if family != last_family {
            let _ = writeln!(out, "# TYPE {family} {kind}");
            last_family = family;
        }
    };
    for (family, labels, v) in &snap.counters {
        type_line(&mut out, family, "counter");
        let _ = writeln!(out, "{family}{} {v}", fmt_labels(labels, None));
    }
    for (family, labels, v) in &snap.gauges {
        type_line(&mut out, family, "gauge");
        let _ = writeln!(out, "{family}{} {v}", fmt_labels(labels, None));
    }
    for (family, labels, h) in &snap.histograms {
        type_line(&mut out, family, "histogram");
        let mut cum = 0u64;
        for (i, bound) in LATENCY_BUCKETS.iter().enumerate() {
            cum += h.buckets[i];
            let _ = writeln!(
                out,
                "{family}_bucket{} {cum}",
                fmt_labels(labels, Some(("le", format!("{bound}"))))
            );
        }
        let _ = writeln!(
            out,
            "{family}_bucket{} {}",
            fmt_labels(labels, Some(("le", "+Inf".into()))),
            h.count
        );
        let _ = writeln!(out, "{family}_sum{} {}", fmt_labels(labels, None), h.sum);
        let _ = writeln!(
            out,
            "{family}_count{} {}",
            fmt_labels(labels, None),
            h.count
        );
    }
    out
}

/// On-demand Prometheus scrape: snapshots the live registry and renders
/// it as text exposition. Unlike [`write_trace`] this touches no file
/// and drains no spans — a serving layer can answer `/metrics` requests
/// mid-run without perturbing the at-drop trace export.
pub fn prometheus_snapshot() -> String {
    prometheus(&snapshot())
}

/// Spans exported so far: [`write_trace`] accumulates drained spans here
/// so repeated exports write the whole profile, not just the new tail.
static EXPORTED: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Drains spans and metrics, then writes the Chrome trace to `path` and
/// the Prometheus dump to `<path>.prom`. Returns both paths.
pub fn write_trace(path: &Path) -> std::io::Result<(PathBuf, PathBuf)> {
    let trace_json = {
        let mut all = EXPORTED.lock().unwrap_or_else(|p| p.into_inner());
        all.extend(drain_spans());
        all.sort_by(|a, b| (a.tid, a.start_ns, b.dur_ns).cmp(&(b.tid, b.start_ns, a.dur_ns)));
        chrome_trace(&all)
    };
    let with_path = |e: std::io::Error, p: &Path| {
        std::io::Error::new(e.kind(), format!("{}: {e}", p.display()))
    };
    std::fs::write(path, trace_json).map_err(|e| with_path(e, path))?;
    let prom_path = PathBuf::from(format!("{}.prom", path.display()));
    std::fs::write(&prom_path, prometheus(&snapshot())).map_err(|e| with_path(e, &prom_path))?;
    Ok((path.to_path_buf(), prom_path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn rec(name: &'static str, tid: u64, start: u64, dur: u64, depth: u32) -> SpanRecord {
        SpanRecord {
            name,
            cat: "test",
            label: Some(format!("{name}-label")),
            tid,
            depth,
            start_ns: start,
            dur_ns: dur,
        }
    }

    #[test]
    fn chrome_trace_parses_and_nests() {
        let spans = vec![
            rec("outer", 0, 0, 10_000, 0),
            rec("inner", 0, 2_000, 3_000, 1),
        ];
        let text = chrome_trace(&spans);
        let v = Json::parse(&text).expect("trace JSON parses");
        let events = v
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // 1 thread metadata + 2 X events.
        assert_eq!(events.len(), 3);
        let xs: Vec<&Json> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), 2);
        let inner = xs
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("inner"))
            .expect("inner event");
        assert_eq!(inner.get("ts").and_then(Json::as_f64), Some(2.0));
        assert_eq!(inner.get("dur").and_then(Json::as_f64), Some(3.0));
        let depth = inner
            .get("args")
            .and_then(|a| a.get("depth"))
            .and_then(Json::as_f64);
        assert_eq!(depth, Some(1.0));
    }

    #[test]
    fn prometheus_snapshot_serves_live_registry() {
        use crate::metrics::{counter_add, test_lock, test_reset};
        use crate::span::set_enabled;
        let _g = test_lock();
        set_enabled(true);
        test_reset();
        counter_add("cardbench_serve_queries_total", &[("mode", "test")], 7);
        set_enabled(false);
        let text = prometheus_snapshot();
        assert!(text.contains("# TYPE cardbench_serve_queries_total counter"));
        assert!(text.contains("cardbench_serve_queries_total{mode=\"test\"} 7"));
        // A second scrape sees the same state: snapshotting drains
        // nothing.
        assert_eq!(text, prometheus_snapshot());
        test_reset();
    }

    #[test]
    fn prometheus_exposition_shape() {
        let mut h = Histogram {
            buckets: [0; LATENCY_BUCKETS.len()],
            overflow: 1,
            sum: 100.0025,
            count: 3,
        };
        h.buckets[1] = 2;
        let snap = RegistrySnapshot {
            counters: vec![(
                "cardbench_est_failures_total",
                vec![("kind", "nan".into())],
                4,
            )],
            gauges: vec![("cardbench_peak_intermediate_bytes", vec![], 4096.0)],
            histograms: vec![("cardbench_estimate_latency_seconds", vec![], h)],
        };
        let text = prometheus(&snap);
        assert!(text.contains("# TYPE cardbench_est_failures_total counter"));
        assert!(text.contains("cardbench_est_failures_total{kind=\"nan\"} 4"));
        assert!(text.contains("# TYPE cardbench_peak_intermediate_bytes gauge"));
        assert!(text.contains("# TYPE cardbench_estimate_latency_seconds histogram"));
        // Cumulative buckets: the 2 observations at bound index 1 stay
        // cumulative through every later bound; +Inf equals count.
        assert!(text.contains("cardbench_estimate_latency_seconds_bucket{le=\"0.0000025\"} 2"));
        assert!(text.contains("cardbench_estimate_latency_seconds_bucket{le=\"10\"} 2"));
        assert!(text.contains("cardbench_estimate_latency_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("cardbench_estimate_latency_seconds_count 3"));
    }
}
