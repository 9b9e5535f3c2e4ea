//! Hierarchical wall-clock spans with per-thread record buffers.
//!
//! A [`Span`] is an RAII guard: creating one notes the start time,
//! dropping it appends a completed [`SpanRecord`] to the current
//! thread's buffer. Buffers drain into a process-wide sink when their
//! thread exits (thread-local destructor) or when [`drain_spans`] runs,
//! so the record path itself never takes a lock.
//!
//! Timestamps are nanoseconds since a process-wide monotonic epoch
//! (first use), so spans from different threads share one timeline.
//! Nesting is tracked per thread with a depth counter; exporters and
//! viewers recover the hierarchy from (thread, time-containment), which
//! is exactly Chrome `trace_event` semantics for `X` events.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Process-wide recording switch. Off by default: every recording entry
/// point checks this first and returns without reading the clock.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Completed span records from exited threads (and explicit drains).
static SINK: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Monotonically assigned compact thread ids (stable within a process,
/// friendlier in trace viewers than opaque OS thread ids).
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Is span/metric recording currently on?
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off (normally set once at startup from
/// `--trace`).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
    if on {
        // Pin the epoch before the first span so timestamps start near 0.
        let _ = epoch();
    }
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (`"run"`, `"estimator"`, `"query"`, `"estimate"`, …).
    pub name: &'static str,
    /// Category (`"run"`, `"plan"`, `"exec"`, …) — the Chrome `cat`.
    pub cat: &'static str,
    /// Optional human label (estimator name, query id, operator detail).
    pub label: Option<String>,
    /// Compact id of the recording thread.
    pub tid: u64,
    /// Nesting depth on the recording thread at span start (0 = root).
    pub depth: u32,
    /// Start, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Flush a thread buffer once it holds this many records (bounds memory
/// on span-heavy threads; exited threads flush whatever they hold).
const FLUSH_AT: usize = 4096;

struct ThreadBuf {
    tid: u64,
    depth: u32,
    records: Vec<SpanRecord>,
}

impl ThreadBuf {
    fn new() -> ThreadBuf {
        ThreadBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            depth: 0,
            records: Vec::new(),
        }
    }

    fn flush(&mut self) {
        if self.records.is_empty() {
            return;
        }
        let mut sink = SINK.lock().unwrap_or_else(|p| p.into_inner());
        sink.append(&mut self.records);
    }
}

impl Drop for ThreadBuf {
    fn drop(&mut self) {
        self.flush();
    }
}

thread_local! {
    static BUF: RefCell<ThreadBuf> = RefCell::new(ThreadBuf::new());
}

/// An in-flight span: records itself on drop. When recording is
/// disabled this is an inert zero-field struct — no clock read, no
/// allocation, no buffer access.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct Span {
    live: Option<LiveSpan>,
}

struct LiveSpan {
    name: &'static str,
    cat: &'static str,
    label: Option<String>,
    start_ns: u64,
}

/// Opens a span. The fast path when disabled is a single relaxed atomic
/// load.
#[inline]
pub fn span(name: &'static str, cat: &'static str) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    open(name, cat, None)
}

/// Opens a span with a lazily built label. The closure only runs when
/// recording is enabled, so label formatting costs nothing when off.
#[inline]
pub fn span_with(name: &'static str, cat: &'static str, label: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span { live: None };
    }
    open(name, cat, Some(label()))
}

fn open(name: &'static str, cat: &'static str, label: Option<String>) -> Span {
    BUF.with(|b| b.borrow_mut().depth += 1);
    Span {
        live: Some(LiveSpan {
            name,
            cat,
            label,
            start_ns: now_ns(),
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(s) = self.live.take() else { return };
        let end = now_ns();
        BUF.with(|b| {
            let mut b = b.borrow_mut();
            b.depth = b.depth.saturating_sub(1);
            let (tid, depth) = (b.tid, b.depth);
            b.records.push(SpanRecord {
                name: s.name,
                cat: s.cat,
                label: s.label,
                tid,
                depth,
                start_ns: s.start_ns,
                dur_ns: end.saturating_sub(s.start_ns),
            });
            if b.records.len() >= FLUSH_AT {
                b.flush();
            }
        });
    }
}

/// Flushes the calling thread's buffer and takes every record flushed so
/// far, ordered by (thread, start time). Buffers of still-running
/// *other* threads are not reachable and stay put. A buffer flushes in
/// its thread's thread-local destructor, which runs after the thread's
/// closure has returned: only a `join` of the thread (not the implicit
/// wait at the end of `std::thread::scope`) orders that flush before a
/// drain.
pub fn drain_spans() -> Vec<SpanRecord> {
    BUF.with(|b| b.borrow_mut().flush());
    let mut v = {
        let mut sink = SINK.lock().unwrap_or_else(|p| p.into_inner());
        std::mem::take(&mut *sink)
    };
    v.sort_by(|a, b| (a.tid, a.start_ns, b.dur_ns).cmp(&(b.tid, b.start_ns, a.dur_ns)));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    // Span tests share process-global state (ENABLED, SINK); run them
    // under one lock so parallel test threads don't interleave records.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = serial();
        set_enabled(false);
        let _ = drain_spans();
        {
            let _s = span("never", "test");
            let _t = span_with("never2", "test", || "label".into());
        }
        assert!(drain_spans().is_empty());
    }

    #[test]
    fn nesting_depth_and_order() {
        let _g = serial();
        set_enabled(true);
        let _ = drain_spans();
        {
            let _outer = span("outer", "test");
            {
                let _inner = span_with("inner", "test", || "L".into());
            }
        }
        set_enabled(false);
        let spans = drain_spans();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert_eq!(inner.label.as_deref(), Some("L"));
        assert_eq!(outer.tid, inner.tid);
        // Time containment: inner starts at/after outer and ends before.
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.start_ns + inner.dur_ns <= outer.start_ns + outer.dur_ns);
    }

    #[test]
    fn cross_thread_spans_flush_on_exit() {
        let _g = serial();
        set_enabled(true);
        let _ = drain_spans();
        // 200 rounds: the flush races the drain unless the worker is
        // joined, and a one-in-four loss must not pass by luck.
        for round in 0..200 {
            std::thread::scope(|s| {
                let worker = s.spawn(|| {
                    let _s = span("worker", "test");
                });
                worker.join().expect("worker thread");
            });
            {
                let _m = span("main", "test");
            }
            let spans = drain_spans();
            let worker = spans
                .iter()
                .find(|s| s.name == "worker")
                .unwrap_or_else(|| panic!("round {round}: worker span lost"));
            let main = spans.iter().find(|s| s.name == "main").expect("main");
            assert_ne!(worker.tid, main.tid);
        }
        set_enabled(false);
    }
}
