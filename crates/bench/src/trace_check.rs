//! Validates a `--trace` profile pair: the Chrome `trace_event` JSON and
//! its Prometheus sidecar (`<trace>.prom`). Every `smoke` suite runs
//! this on its own trace; `cardbench validate-trace` runs it on a file.
//!
//! Structural checks (always on):
//! - the trace parses as JSON with a `traceEvents` array and at least
//!   one complete (`"ph": "X"`) event;
//! - every complete event carries `name`, `cat`, finite `ts`/`dur`, and
//!   a `tid`;
//! - the span hierarchy holds: every `execute` span is time-contained in
//!   a `workload` span on the same thread, every `estimate` and
//!   `topology` span (a shared-topology build on a cache miss) in a
//!   `plan` span when that thread planned anything, every `feedback`
//!   span in a `workload` span when that thread ran one, every `session`
//!   span in a `run` span, and (when a `run` span exists on that thread)
//!   every `workload` span in a `run` span;
//! - the sidecar parses line-wise: every series line belongs to a family
//!   announced by a `# TYPE` line.
//!
//! Required span names and metric families add existence checks on top,
//! so a suite can insist on the exact instrumentation it must emit.

use std::path::Path;

use cardbench_support::json::Json;

use crate::args::{Args, Fail};

/// The instrumentation one run must have emitted.
pub struct Required {
    /// Span names that must occur in the trace.
    pub spans: &'static [&'static str],
    /// Metric families that must be announced in the sidecar.
    pub families: &'static [&'static str],
}

struct Span {
    name: String,
    tid: u64,
    start: f64,
    end: f64,
}

/// `cardbench validate-trace <trace.json> [--require-span NAME]...
/// [--require-family NAME]...`.
pub fn run(args: &Args) -> Result<Option<&'static Required>, Fail> {
    let [_, trace_path] = args.operands.as_slice() else {
        return Err(Fail::Usage(
            "validate-trace takes exactly one trace path".into(),
        ));
    };
    let spans: Vec<&str> = args.values("--require-span").collect();
    let families: Vec<&str> = args.values("--require-family").collect();
    println!("{}", check_files(Path::new(trace_path), &spans, &families)?);
    Ok(None)
}

/// Validates `trace_path` and `<trace_path>.prom`; the `Ok` value is the
/// one-line summary, the `Err` value names the file and the offender.
pub fn check_files(trace_path: &Path, spans: &[&str], families: &[&str]) -> Result<String, String> {
    let read = |path: &Path| {
        std::fs::read_to_string(path).map_err(|e| format!("{}: read: {e}", path.display()))
    };
    let n_spans = check_trace(&read(trace_path)?, spans)
        .map_err(|msg| format!("{}: {msg}", trace_path.display()))?;
    let prom_path = format!("{}.prom", trace_path.display());
    let n_families = check_prometheus(&read(Path::new(&prom_path))?, families)
        .map_err(|msg| format!("{prom_path}: {msg}"))?;
    Ok(format!(
        "trace OK: {n_spans} spans, {n_families} metric families"
    ))
}

/// Parses and validates the Chrome trace; returns the span count.
pub fn check_trace(text: &str, required: &[&str]) -> Result<usize, String> {
    let v = Json::parse(text).map_err(|e| format!("JSON parse: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or("missing `traceEvents` array")?;

    let mut spans: Vec<Span> = Vec::new();
    for ev in events {
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or_default();
        if ph != "X" {
            continue;
        }
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or("complete event without `name`")?;
        let field = |k: &str| {
            ev.get(k)
                .and_then(Json::as_f64)
                .filter(|n| n.is_finite() && *n >= 0.0)
                .ok_or(format!("`{name}` event without finite `{k}`"))
        };
        ev.get("cat")
            .and_then(Json::as_str)
            .ok_or(format!("`{name}` event without `cat`"))?;
        let ts = field("ts")?;
        let dur = field("dur")?;
        spans.push(Span {
            name: name.to_string(),
            tid: field("tid")? as u64,
            start: ts,
            end: ts + dur,
        });
    }
    if spans.is_empty() {
        return Err("no complete (\"X\") events — was tracing enabled?".into());
    }

    for want in required {
        if !spans.iter().any(|s| s.name == *want) {
            return Err(format!("required span `{want}` missing"));
        }
    }

    // A child must sit inside a parent of the expected name on the same
    // thread. Planning fans out across threads, so the rule is per-tid:
    // `estimate` happens inside `plan` on the worker that planned it,
    // `execute` inside `workload` on the coordinating thread.
    let contained = |child: &Span, parent_name: &str| {
        spans.iter().any(|p| {
            p.name == parent_name
                && p.tid == child.tid
                && p.start <= child.start
                && child.end <= p.end
        })
    };
    let tid_has = |name: &str, tid: u64| spans.iter().any(|p| p.name == name && p.tid == tid);
    for child in &spans {
        let parents: &[&str] = match child.name.as_str() {
            "execute" => &["workload"],
            // Estimates run inside the `plan` span of the thread that
            // planned the query, serve ticks included: a tick runs on
            // the thread of a session that is planning. A thread that
            // never planned (a direct `estimate_all` caller) may
            // estimate bare — hence the guard.
            "estimate" if tid_has("plan", child.tid) => &["plan"],
            // Topology builds are memoized: a miss inside planning emits
            // the span under `plan`. A thread that never planned (tests,
            // case studies) may build one bare — hence the guard.
            "topology" if tid_has("plan", child.tid) => &["plan"],
            // Feedback observation runs after execution, inside the
            // adaptive runner's `workload` span.
            "feedback" if tid_has("workload", child.tid) => &["workload"],
            "workload" if tid_has("run", child.tid) => &["run"],
            // A serve session always opens its own per-thread `run` span,
            // so the rule is unconditional.
            "session" => &["run"],
            _ => continue,
        };
        if !parents.iter().any(|p| contained(child, p)) {
            return Err(format!(
                "`{}` span at ts={} (tid {}) not contained in any {} span",
                child.name,
                child.start,
                child.tid,
                parents
                    .iter()
                    .map(|p| format!("`{p}`"))
                    .collect::<Vec<_>>()
                    .join("/"),
            ));
        }
    }
    Ok(spans.len())
}

/// Line-wise validation of the Prometheus sidecar; returns the family
/// count.
pub fn check_prometheus(text: &str, required: &[&str]) -> Result<usize, String> {
    let mut families: Vec<&str> = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let fam = parts
                .next()
                .ok_or(format!("line {lineno}: bare `# TYPE`"))?;
            match parts.next() {
                Some("counter" | "gauge" | "histogram") => {}
                other => return Err(format!("line {lineno}: bad metric type {other:?}")),
            }
            families.push(fam);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        // A series line: `name{labels} value` or `name value`; its name
        // (modulo histogram suffixes) must match an announced family.
        let name = line
            .split(['{', ' '])
            .next()
            .ok_or(format!("line {lineno}: unparseable series"))?;
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if !families.iter().any(|f| *f == base || *f == name) {
            return Err(format!(
                "line {lineno}: series `{name}` has no preceding `# TYPE` line"
            ));
        }
        let value = line
            .rsplit(' ')
            .next()
            .ok_or(format!("line {lineno}: missing value"))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("line {lineno}: non-numeric value `{value}`"))?;
    }
    for want in required {
        if !families.contains(want) {
            return Err(format!("required metric family `{want}` missing"));
        }
    }
    Ok(families.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One complete event; `ts`/`dur` are spliced in as JSON text so a
    /// test can write a value that is not a finite number.
    fn event(name: &str, tid: u64, ts: &str, dur: &str) -> String {
        format!(
            r#"{{"name":"{name}","cat":"test","ph":"X","pid":1,"tid":{tid},"ts":{ts},"dur":{dur}}}"#
        )
    }

    fn trace(events: &[String]) -> String {
        format!(r#"{{"traceEvents":[{}]}}"#, events.join(","))
    }

    const PROM: &str = "# HELP cardbench_x_total help text\n\
                        # TYPE cardbench_x_total counter\n\
                        cardbench_x_total{method=\"PG\"} 3\n\
                        # TYPE cardbench_lat_seconds histogram\n\
                        cardbench_lat_seconds_bucket{le=\"+Inf\"} 2\n\
                        cardbench_lat_seconds_sum 0.5\n\
                        cardbench_lat_seconds_count 2\n";

    #[test]
    fn a_minimal_valid_pair_passes() {
        let t = trace(&[
            event("run", 0, "0", "100"),
            event("workload", 0, "1", "90"),
            event("execute", 0, "2", "10"),
            event("run", 1, "0", "50"),
            event("session", 1, "5", "40"),
        ]);
        assert_eq!(check_trace(&t, &["run", "execute"]), Ok(5));
        assert_eq!(
            check_prometheus(PROM, &["cardbench_x_total", "cardbench_lat_seconds"]),
            Ok(2)
        );
    }

    #[test]
    fn execute_outside_any_workload_is_rejected() {
        // The workload span is on the same thread but ends too early.
        let t = trace(&[
            event("workload", 0, "0", "5"),
            event("execute", 0, "7", "10"),
        ]);
        let err = check_trace(&t, &[]).expect_err("uncontained execute");
        assert!(
            err.contains("`execute` span at ts=7") && err.contains("`workload`"),
            "{err}"
        );
    }

    #[test]
    fn session_outside_run_is_rejected() {
        // A `run` span exists, but on another thread.
        let t = trace(&[event("run", 0, "0", "100"), event("session", 1, "5", "40")]);
        let err = check_trace(&t, &[]).expect_err("uncontained session");
        assert!(
            err.contains("`session` span") && err.contains("(tid 1)") && err.contains("`run`"),
            "{err}"
        );
    }

    #[test]
    fn session_topology_outside_plan_is_rejected() {
        // A serve session's topology lookup happens inside `plan`; one
        // before the plan span opens is out of place, even inside
        // `session`.
        let t = trace(&[
            event("run", 1, "0", "100"),
            event("session", 1, "1", "90"),
            event("topology", 1, "2", "3"),
            event("plan", 1, "10", "20"),
            event("topology", 1, "11", "3"),
        ]);
        let err = check_trace(&t, &[]).expect_err("topology outside plan");
        assert_eq!(
            err,
            "`topology` span at ts=2 (tid 1) not contained in any `plan` span"
        );
    }

    #[test]
    fn non_finite_timestamp_is_rejected() {
        for ts in ["null", "\"NaN\"", "-1", "1e999"] {
            let t = trace(&[event("plan", 0, ts, "1")]);
            let err = check_trace(&t, &[]).expect_err(ts);
            assert_eq!(err, "`plan` event without finite `ts`", "ts = {ts}");
        }
    }

    #[test]
    fn missing_required_span_is_named() {
        let t = trace(&[event("run", 0, "0", "1")]);
        assert_eq!(
            check_trace(&t, &["run", "coalesced_batch"]),
            Err("required span `coalesced_batch` missing".to_string())
        );
        assert!(check_trace(r#"{"traceEvents":[]}"#, &[]).is_err());
    }

    #[test]
    fn series_without_a_type_line_is_rejected() {
        let text = format!("{PROM}cardbench_orphan_total 1\n");
        assert_eq!(
            check_prometheus(&text, &[]),
            Err("line 8: series `cardbench_orphan_total` has no preceding `# TYPE` line".into())
        );
    }

    #[test]
    fn missing_required_family_is_named() {
        assert_eq!(
            check_prometheus(
                PROM,
                &["cardbench_x_total", "cardbench_serve_chaos_faults_total"]
            ),
            Err("required metric family `cardbench_serve_chaos_faults_total` missing".to_string())
        );
    }
}
