//! Scoped-thread data parallelism (the `rayon` role, dependency-free).
//!
//! [`map`] fans a slice out over worker threads with dynamic (atomic
//! counter) scheduling and returns results in input order, so callers
//! stay deterministic regardless of thread count or interleaving.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Number of worker threads to use when the caller does not pin one:
/// the `CARDBENCH_THREADS` environment variable when it holds a
/// positive integer, else the machine's available parallelism.
pub fn max_threads() -> usize {
    std::env::var("CARDBENCH_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Resolves a `--threads`-style knob: `0` means "auto" (env var or all
/// cores, per [`max_threads`]), anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        max_threads()
    } else {
        requested
    }
}

/// Applies `f` to every item of `items` using up to `threads` worker
/// threads, returning the results in input order.
///
/// Scheduling is dynamic: workers pull the next unclaimed index from an
/// atomic counter, so skewed per-item costs (some queries have far more
/// sub-plans than others) still balance. With `threads <= 1` (or one
/// item) this degrades to a plain sequential loop with zero overhead.
pub fn map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.max(1).min(items.len().max(1));
    if threads <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    // Batch each worker's results locally; one lock per worker.
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(i, &items[i])));
                    }
                    collected
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .extend(local);
                })
            })
            .collect();
        // The scope's implicit join waits for each closure's result, not
        // for the worker's thread-local destructors; `join` waits for the
        // OS thread, so what a worker flushes on exit (span buffers) is
        // visible to the caller as soon as `map` returns.
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    let mut indexed = collected
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    indexed.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(indexed.len(), items.len());
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<usize> = (0..103).collect();
        let out = map(&items, 8, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..103).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_matches_parallel() {
        let items: Vec<u64> = (0..57).collect();
        let seq = map(&items, 1, |_, &x| x * x + 1);
        let par = map(&items, 6, |_, &x| x * x + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn resolve_threads_semantics() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn worker_thread_locals_are_dropped_when_map_returns() {
        static CREATED: AtomicUsize = AtomicUsize::new(0);
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                // A slow destructor: without an OS-level join `map` would
                // return long before this count moves.
                std::thread::sleep(std::time::Duration::from_millis(5));
                DROPPED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static GUARD: Guard = {
                CREATED.fetch_add(1, Ordering::SeqCst);
                Guard
            };
        }
        let items: Vec<usize> = (0..16).collect();
        for round in 0..10 {
            map(&items, 4, |_, _| GUARD.with(|_| ()));
            assert_eq!(
                CREATED.load(Ordering::SeqCst),
                DROPPED.load(Ordering::SeqCst),
                "round {round}: a worker's thread-locals outlived map"
            );
        }
    }

    #[test]
    fn actually_uses_multiple_threads() {
        use std::collections::HashSet;
        let items: Vec<usize> = (0..64).collect();
        let ids = Mutex::new(HashSet::new());
        map(&items, 4, |_, _| {
            ids.lock().unwrap().insert(std::thread::current().id());
            // Give siblings a chance to claim work.
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert!(ids.lock().unwrap().len() > 1);
    }
}
