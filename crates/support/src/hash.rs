//! FNV-1a, the workspace's one key hash: three step functions that every
//! cache key, query identity, state digest and test seed is built from,
//! and a hasher (the `fxhash`/`fnv` role) for hot in-process hash maps
//! keyed by small structured values, where the DoS-resistant default
//! SipHash costs more than the lookup's payload work. Not for maps keyed
//! by untrusted external input.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a offset basis: the state every digest starts from.
pub const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds the bytes of `b` into `h`, one FNV-1a step each.
#[inline]
pub fn bytes(h: u64, b: &[u8]) -> u64 {
    b.iter().fold(h, |h, &b| fold(h, b as u64))
}

/// Folds a 64-bit word into `h` byte by byte, least significant first:
/// eight FNV-1a steps.
#[inline]
pub fn word(h: u64, w: u64) -> u64 {
    bytes(h, &w.to_le_bytes())
}

/// Folds a whole 64-bit word into `h` with one FNV-1a step (one xor, one
/// multiply), as if it were a single byte.
#[inline]
pub fn fold(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(PRIME)
}

/// FNV-1a streaming hasher with a one-multiply fast path for integer
/// writes (the common case for derived `Hash` on index/id fields).
#[derive(Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(OFFSET)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, b: &[u8]) {
        self.0 = bytes(self.0, b);
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = fold(self.0, v);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// `BuildHasher` for [`FnvHasher`].
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// `HashMap` using [`FnvHasher`]; construct with `FnvHashMap::default()`.
pub type FnvHashMap<K, V> = HashMap<K, V, FnvBuildHasher>;

/// `HashSet` using [`FnvHasher`]; construct with `FnvHashSet::default()`.
pub type FnvHashSet<T> = HashSet<T, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_match_goldens() {
        assert_eq!(bytes(OFFSET, b""), OFFSET);
        assert_eq!(bytes(OFFSET, b"x"), 12638214688346347271);
        // A word is its eight little-endian bytes; a fold is one step.
        assert_eq!(
            word(OFFSET, 0x0102),
            bytes(OFFSET, &[2, 1, 0, 0, 0, 0, 0, 0])
        );
        assert_eq!(fold(OFFSET, b'x' as u64), bytes(OFFSET, b"x"));
        assert_eq!(
            word(word(OFFSET, u64::MAX), i64::MIN as u64),
            8650808187456981853
        );
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FnvHashMap<(usize, Vec<i64>), u32> = FnvHashMap::default();
        m.insert((1, vec![2, 3]), 7);
        m.insert((1, vec![2, 4]), 8);
        assert_eq!(m.get(&(1, vec![2, 3])), Some(&7));
        assert_eq!(m.get(&(1, vec![2, 4])), Some(&8));
        assert_eq!(m.get(&(2, vec![2, 3])), None);
    }

    #[test]
    fn distinct_integers_hash_distinctly() {
        let mut s: FnvHashSet<u64> = FnvHashSet::default();
        for v in 0..1000u64 {
            s.insert(v);
        }
        assert_eq!(s.len(), 1000);
    }
}
