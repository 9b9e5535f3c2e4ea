//! A sharded concurrent memo (the `dashmap` role) for shared derived
//! data: values computed once from immutable inputs — filtered scans,
//! key-weight aggregates, join topologies, true cardinalities — then read
//! by every query, estimator and thread.
//!
//! Keys are pre-hashed 64-bit values (FNV digests of a query or a
//! predicate set); the low bits pick one of 16 shards, so lookups of
//! distinct keys rarely contend. Each shard's lock tolerates poison: the
//! harness sandboxes estimator panics with `catch_unwind`, and a panic
//! unwinding through a thread that held a shard poisons it, but entries
//! are only ever written whole, so the map behind it is still valid.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Shard count: a power of two so the shard pick is a mask; 16 keeps
/// contention negligible at the harness's thread counts.
const SHARDS: usize = 16;

/// A 16-way sharded `u64 → V` map with hit/miss counters.
#[derive(Debug)]
pub struct Memo<V> {
    shards: [Mutex<HashMap<u64, V>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for Memo<V> {
    fn default() -> Memo<V> {
        Memo {
            shards: std::array::from_fn(|_| Mutex::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<V: Clone> Memo<V> {
    fn shard(&self, key: u64) -> MutexGuard<'_, HashMap<u64, V>> {
        lock(&self.shards[key as usize & (SHARDS - 1)])
    }

    /// The value under `key`, counting one hit or one miss.
    pub fn get(&self, key: u64) -> Option<V> {
        let found = self.peek(key);
        let counter = if found.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores `value` under `key`, replacing any earlier value.
    pub fn insert(&self, key: u64, value: V) {
        self.shard(key).insert(key, value);
    }

    /// The value under `key`, computed by `compute` and stored on a miss.
    /// Counts like [`Memo::get`]. `compute` runs outside the shard lock,
    /// so a slow compute never serializes its shard and may itself use
    /// the memo. Concurrent first calls may both compute; they store the
    /// same value, so the race is benign.
    pub fn get_or_insert_with(&self, key: u64, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let v = compute();
        self.insert(key, v.clone());
        v
    }

    /// The value under `key`, not counted: for callers that keep counters
    /// of their own.
    pub fn peek(&self, key: u64) -> Option<V> {
        self.shard(key).get(&key).cloned()
    }

    /// Runs `f` on the entry of `key` under its shard lock, for in-place
    /// updates of accumulators. Not counted, like [`Memo::peek`].
    pub fn with<R>(&self, key: u64, f: impl FnOnce(Entry<'_, u64, V>) -> R) -> R {
        f(self.shard(key).entry(key))
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| lock(s).is_empty())
    }

    /// Drops every entry. The counters are kept: they are monotone, and
    /// run-level accounting reads deltas of them.
    pub fn clear(&self) {
        for s in &self.shards {
            lock(s).clear();
        }
    }

    /// `(hits, misses)` of the counted lookups since construction.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_lookup_counts_one_hit_or_one_miss() {
        let m: Memo<u32> = Memo::default();
        assert_eq!(m.get(1), None);
        m.insert(1, 10);
        assert_eq!(m.get(1), Some(10));
        assert_eq!(m.get_or_insert_with(2, || 20), 20);
        assert_eq!(m.get_or_insert_with(2, || unreachable!()), 20);
        assert_eq!(m.stats(), (2, 2));
        // Uncounted access leaves the counters alone.
        m.with(3, |e| *e.or_insert(0) += 5);
        assert_eq!(m.peek(3), Some(5));
        assert_eq!(m.peek(4), None);
        assert_eq!(m.stats(), (2, 2));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn compute_may_reenter_the_same_shard() {
        let m: Memo<u64> = Memo::default();
        // Keys 5 and 5 + SHARDS share a shard; the outer compute holds no
        // lock while the inner one runs.
        let outer = m.get_or_insert_with(5, || m.get_or_insert_with(5 + SHARDS as u64, || 7) + 1);
        assert_eq!(outer, 8);
        assert_eq!(m.get(5 + SHARDS as u64), Some(7));
        assert_eq!(m.stats(), (1, 2));
    }

    #[test]
    fn a_panic_in_a_shard_access_leaves_the_memo_usable() {
        let m: Memo<u32> = Memo::default();
        m.insert(4, 1);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.with(4, |_| panic!("poisons shard 4"))
        }));
        assert!(r.is_err());
        assert_eq!(m.get(4), Some(1));
        m.insert(4 + SHARDS as u64, 2);
        assert_eq!(m.len(), 2);
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn clear_keeps_counters_monotone() {
        let m: Memo<u32> = Memo::default();
        m.get_or_insert_with(9, || 1);
        m.get(9);
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.stats(), (1, 1));
        assert_eq!(m.get(9), None);
        assert_eq!(m.stats(), (1, 2));
    }
}
