//! The benchmark's own in-memory span recorder. Spans are opened from
//! the benchmark's files around calls into a layer's public functions;
//! nothing inside the program is touched. Records stay in memory until
//! the run ends and are then written in Chrome trace format.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use cardbench_support::json::Json;

/// Marks "no parent span" and "no op".
pub const NONE: u32 = u32::MAX;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span open on the same thread when this one started.
    pub parent: u32,
    /// Shared by all spans of one op; [`NONE`] outside an op.
    pub op: u32,
    /// `layer.function`.
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn layer(&self) -> &'static str {
        layer_of(self.name)
    }
}

/// The `layer` of a `layer.function` span name.
fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

thread_local! {
    /// (innermost open span, current op) of this thread.
    static CURRENT: Cell<(u32, u32)> = const { Cell::new((NONE, NONE)) };
    static THREAD: Cell<u32> = const { Cell::new(NONE) };
}

/// The recorder. Shared by reference between load threads; while it is
/// off, opening a span reads no clock and takes no lock.
pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    next_id: AtomicU32,
    next_thread: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
pub struct Guard<'a> {
    tracer: Option<&'a Tracer>,
    id: u32,
    name: &'static str,
    parent: u32,
    op: u32,
    /// What [`CURRENT`] held when the span opened.
    restore: (u32, u32),
    start_ns: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            // Relaxed everywhere: the flag is flipped between passes,
            // while no load thread runs, and the counters publish nothing.
            on: AtomicBool::new(false),
            epoch: Instant::now(),
            next_id: AtomicU32::new(0),
            next_thread: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Opens a span under the innermost open span of this thread.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        let (parent, op) = CURRENT.get();
        self.open(name, parent, op)
    }

    /// Opens the root span of op `op`; spans opened on this thread until
    /// the guard drops carry the op id.
    pub fn op(&self, name: &'static str, op: u32) -> Guard<'_> {
        self.open(name, NONE, op)
    }

    fn open(&self, name: &'static str, parent: u32, op: u32) -> Guard<'_> {
        let mut guard = Guard {
            tracer: None,
            id: NONE,
            name,
            parent,
            op,
            restore: (NONE, NONE),
            start_ns: 0,
        };
        if self.on() {
            guard.tracer = Some(self);
            guard.id = self.next_id.fetch_add(1, Ordering::Relaxed);
            guard.restore = CURRENT.replace((guard.id, op));
            guard.start_ns = self.epoch.elapsed().as_nanos() as u64;
        }
        guard
    }

    /// Takes every span recorded so far.
    pub fn drain(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no span holder panics"))
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(tracer) = self.tracer else { return };
        let end_ns = tracer.epoch.elapsed().as_nanos() as u64;
        CURRENT.set(self.restore);
        let thread = match THREAD.get() {
            NONE => {
                let t = tracer.next_thread.fetch_add(1, Ordering::Relaxed);
                THREAD.set(t);
                t
            }
            t => t,
        };
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            name: self.name,
            thread,
            start_ns: self.start_ns,
            end_ns,
        };
        tracer
            .spans
            .lock()
            .expect("no span holder panics")
            .push(span);
    }
}

/// Self time of every span, by span id: its duration minus the part of
/// its interval that its child spans cover. Overlapping children are
/// merged first, so a covered interval is subtracted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != NONE) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Name of the root span of an op.
pub const OP: &str = "bench.op";

/// Spans of several passes over one op list, reduced per span name.
#[derive(Default)]
pub struct Profile {
    passes: usize,
    /// (name, op) -> per-pass summed duration of that name's spans in
    /// that op.
    dur: BTreeMap<(&'static str, u32), Vec<u64>>,
    /// name -> (summed duration, summed self time) over all passes.
    totals: BTreeMap<&'static str, (u64, u64)>,
    /// name -> every duration of the spans opened outside an op (on a
    /// thread that serves several ops at once).
    outside: BTreeMap<&'static str, Vec<f64>>,
}

impl Profile {
    /// Adds the spans of one whole pass.
    pub fn add_pass(&mut self, spans: &[Span]) {
        let own = self_times(spans);
        let mut in_pass: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for s in spans {
            *in_pass.entry((s.name, s.op)).or_default() += s.dur_ns();
            let t = self.totals.entry(s.name).or_default();
            t.0 += s.dur_ns();
            t.1 += own[&s.id];
            if s.op == NONE {
                self.outside
                    .entry(s.name)
                    .or_default()
                    .push(s.dur_ns() as f64);
            }
        }
        for (key, ns) in in_pass {
            self.dur.entry(key).or_default().push(ns);
        }
        self.passes += 1;
    }

    /// For each op with spans called `name`: the median over passes of
    /// the nanoseconds the op spent in them.
    pub fn op_medians_ns(&self, name: &str) -> BTreeMap<u32, f64> {
        self.dur
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|((_, op), ns)| {
                let v: Vec<f64> = ns.iter().map(|&x| x as f64).collect();
                (*op, crate::reduce::median(&v))
            })
            .collect()
    }

    /// Median over ops of [`Profile::op_medians_ns`], in microseconds; 0
    /// if no op has such a span. The same reduction as the end-to-end
    /// latency, so a bimodal op population is never pooled.
    pub fn p50_us(&self, name: &str) -> f64 {
        let per_op: Vec<f64> = self.op_medians_ns(name).into_values().collect();
        if per_op.is_empty() {
            0.0
        } else {
            crate::reduce::median(&per_op) / 1e3
        }
    }

    /// Median duration of the spans called `name` that were opened
    /// outside an op, in microseconds; 0 if there is none.
    pub fn call_p50_us(&self, name: &str) -> f64 {
        self.outside
            .get(name)
            .map_or(0.0, |ns| crate::reduce::median(ns) / 1e3)
    }

    fn per_pass(&self, name: &str, pick: impl Fn(&(u64, u64)) -> u64) -> f64 {
        match self.totals.get(name) {
            Some(t) if self.passes > 0 => pick(t) as f64 / self.passes as f64,
            _ => 0.0,
        }
    }

    /// Seconds per pass inside spans called `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.per_pass(name, |t| t.0) / 1e9
    }

    /// Seconds per pass of self time of spans called `name`.
    pub fn own_s(&self, name: &str) -> f64 {
        self.per_pass(name, |t| t.1) / 1e9
    }

    /// Self seconds per pass of every span whose layer is `layer`.
    pub fn layer_own_s(&self, layer: &str) -> f64 {
        let names: Vec<&'static str> = self.totals.keys().copied().collect();
        names
            .into_iter()
            .filter(|n| layer_of(n) == layer)
            .map(|n| self.own_s(n))
            .sum()
    }
}

/// Chrome `trace_event` rendering (complete events, microseconds).
pub fn chrome_trace(spans: &[Span]) -> Json {
    let id = |v: u32| {
        if v == NONE {
            Json::Null
        } else {
            Json::Number(f64::from(v))
        }
    };
    let events = spans
        .iter()
        .map(|s| {
            Json::object([
                ("name", Json::String(s.name.to_string())),
                ("cat", Json::String(s.layer().to_string())),
                ("ph", Json::String("X".to_string())),
                ("ts", Json::Number(s.start_ns as f64 / 1e3)),
                ("dur", Json::Number(s.dur_ns() as f64 / 1e3)),
                ("pid", Json::Number(1.0)),
                ("tid", Json::Number(f64::from(s.thread))),
                (
                    "args",
                    Json::object([("id", id(s.id)), ("parent", id(s.parent)), ("op", id(s.op))]),
                ),
            ])
        })
        .collect();
    Json::object([("traceEvents", Json::Array(events))])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "layer.function",
            thread: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_a_covered_interval_once() {
        // Root 0..100 with children 10..40 and 30..60 (overlapping by 10)
        // and 90..120 (running past the root's end); a grandchild 15..20
        // counts against its own parent only.
        let spans = vec![
            span(0, NONE, 0, 100),
            span(1, 0, 10, 40),
            span(2, 0, 30, 60),
            span(3, 0, 90, 120),
            span(4, 1, 15, 20),
        ];
        let own = self_times(&spans);
        assert_eq!(own[&0], 100 - (50 + 10));
        assert_eq!(own[&1], 30 - 5);
        assert_eq!(own[&2], 30);
        assert_eq!(own[&4], 5);
    }

    #[test]
    fn recorder_links_parents_and_ops_and_is_silent_while_off() {
        let tr = Tracer::new();
        drop(tr.span("off.span"));
        assert!(tr.drain().is_empty());
        tr.set_on(true);
        {
            let _op = tr.op("bench.op", 7);
            let _outer = tr.span("a.outer");
            drop(tr.span("b.inner"));
        }
        drop(tr.span("c.after"));
        let spans = tr.drain();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("recorded");
        let (op, outer, inner) = (by_name("bench.op"), by_name("a.outer"), by_name("b.inner"));
        assert_eq!((op.parent, op.op), (NONE, 7));
        assert_eq!((outer.parent, outer.op), (op.id, 7));
        assert_eq!((inner.parent, inner.op), (outer.id, 7));
        assert_eq!(by_name("c.after").op, NONE);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }
}
