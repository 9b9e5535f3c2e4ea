//! HyperLogLog++ distinct counting (dense representation).
//!
//! `2^p` one-byte registers; each hashed value routes to the register
//! named by its top `p` bits and raises it to the rank (leading-zero
//! count + 1) of the remaining bits. Registers combine by `max`, so the
//! sketch is mergeable and insertion order never matters — the property
//! the sharded build's bit-identity rests on. The estimator applies the
//! HLL++ linear-counting small-range correction; with 64-bit hashes no
//! large-range correction is needed.
//!
//! The estimate is derived state: it is a pure function of the
//! registers, kept beside them and recomputed only when a `&mut` call
//! raised one, so reading it costs a load.

use cardbench_support::hash::fold;

/// A dense HyperLogLog++ sketch.
#[derive(Debug, Clone)]
pub struct Hll {
    precision: u8,
    regs: Vec<u8>,
    /// [`Hll::fresh_estimate`] of `regs` as of the last `&mut` call.
    est: f64,
}

/// Equal registers give equal estimates, so the cache takes no part.
impl PartialEq for Hll {
    fn eq(&self, other: &Hll) -> bool {
        self.precision == other.precision && self.regs == other.regs
    }
}

impl Eq for Hll {}

impl Hll {
    /// Creates an empty sketch with `2^precision` registers
    /// (`precision` clamped to `[4, 16]`).
    pub fn new(precision: u8) -> Hll {
        let precision = precision.clamp(4, 16);
        let mut hll = Hll {
            precision,
            regs: vec![0; 1 << precision],
            est: 0.0,
        };
        hll.refresh();
        hll
    }

    /// Observes one hashed value without refreshing the estimate;
    /// returns whether a register rose. A caller that gets `true` must
    /// [`Hll::refresh`] before its `&mut` call returns.
    #[inline]
    pub(crate) fn raise(&mut self, h: u64) -> bool {
        let p = self.precision as u32;
        let idx = (h >> (64 - p)) as usize;
        // Rank of the remaining 64-p bits: leading zeros + 1, where an
        // all-zero tail counts as 64-p+1.
        let tail = h << p;
        let rank = if tail == 0 {
            (64 - p + 1) as u8
        } else {
            (tail.leading_zeros() + 1) as u8
        };
        if rank > self.regs[idx] {
            self.regs[idx] = rank;
            true
        } else {
            false
        }
    }

    /// Recomputes the cached estimate from the registers.
    pub(crate) fn refresh(&mut self) {
        self.est = self.fresh_estimate();
    }

    /// Merges another sketch (element-wise register max). Panics if the
    /// precisions differ — sketches are only mergeable within one config.
    pub fn merge(&mut self, other: &Hll) {
        assert_eq!(self.precision, other.precision, "HLL precision mismatch");
        let mut rose = false;
        for (a, b) in self.regs.iter_mut().zip(&other.regs) {
            if *b > *a {
                *a = *b;
                rose = true;
            }
        }
        if rose {
            self.refresh();
        }
    }

    /// Estimated number of distinct inserted values.
    #[inline]
    pub fn estimate(&self) -> f64 {
        self.est
    }

    /// The estimate computed from the registers now, which
    /// [`Hll::estimate`] caches.
    pub(crate) fn fresh_estimate(&self) -> f64 {
        let m = self.regs.len() as f64;
        let alpha = match self.regs.len() {
            16 => 0.673,
            32 => 0.697,
            64 => 0.709,
            n => 0.7213 / (1.0 + 1.079 / n as f64),
        };
        let sum: f64 = self.regs.iter().map(|&r| 0.5f64.powi(r as i32)).sum();
        let raw = alpha * m * m / sum;
        let zeros = self.regs.iter().filter(|&&r| r == 0).count();
        if raw <= 2.5 * m && zeros > 0 {
            // Linear counting in the small range.
            m * (m / zeros as f64).ln()
        } else {
            raw
        }
    }

    /// Heap footprint in bytes (the registers; the cached estimate is
    /// derived).
    pub fn size_bytes(&self) -> usize {
        self.regs.len()
    }

    /// Folds every register into a running state digest.
    pub fn digest_into(&self, d: &mut u64) {
        *d = fold(*d, self.precision as u64);
        for &r in &self.regs {
            *d = fold(*d, r as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix64;

    impl Hll {
        /// Observes one hashed value, as a `&mut` call of its own.
        fn insert_hash(&mut self, h: u64) {
            if self.raise(h) {
                self.refresh();
            }
        }
    }

    #[test]
    fn estimates_within_expected_error() {
        for &n in &[50u64, 1_000, 20_000] {
            let mut h = Hll::new(10);
            for v in 0..n {
                h.insert_hash(mix64(v.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            }
            let e = h.estimate();
            let rel = (e - n as f64).abs() / n as f64;
            // Standard error at p=10 is ~3.25%; allow a generous margin.
            assert!(rel < 0.15, "n={n} est={e} rel={rel}");
        }
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut h = Hll::new(8);
        for _ in 0..1000 {
            h.insert_hash(mix64(7));
        }
        assert!(h.estimate() < 2.0, "est {}", h.estimate());
    }

    #[test]
    fn merge_equals_union_bitwise() {
        let mut all = Hll::new(9);
        let mut a = Hll::new(9);
        let mut b = Hll::new(9);
        for v in 0..5000u64 {
            let h = mix64(v);
            all.insert_hash(h);
            if v % 2 == 0 {
                a.insert_hash(h);
            } else {
                b.insert_hash(h);
            }
        }
        // Merge in either order: identical registers to the direct build.
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, all);
        assert_eq!(ba, all);
    }

    #[test]
    fn empty_estimates_zero() {
        assert_eq!(Hll::new(7).estimate(), 0.0);
    }
}
