//! Count-min frequency sketches: a plain point sketch and a dyadic
//! range-summable variant.
//!
//! Cells are u32 counts combined by saturating addition, so sketches
//! merge exactly and deletes (saturating subtraction) undo inserts
//! cell-for-cell in the strict-turnstile case (only previously inserted
//! rows are deleted). Point estimates apply the count-mean-min
//! correction — subtracting each row's expected collision mass
//! `(mass - cell) / (width - 1)` before taking the row minimum — which
//! keeps the additive noise of dyadic range sums (dozens of point
//! probes) near zero in expectation instead of accumulating `O(probes ·
//! mass / width)`.

use cardbench_support::hash::fold;

use crate::{mix64, Direction};

/// A plain count-min sketch addressed by a pre-mixed 64-bit value hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountMin {
    depth: usize,
    width: usize,
    /// `width - 1` when the width is a power of two: the cell index is
    /// then `hash & mask`, the same number as `hash % width`. Fixed with
    /// the width.
    mask: Option<u64>,
    /// Total inserted minus deleted items (the CMM correction baseline).
    mass: u64,
    /// `depth × width` cells, row-major.
    cells: Vec<u32>,
}

impl CountMin {
    /// Creates an empty `depth × width` sketch (both clamped to ≥ 1;
    /// width 1 disables the CMM correction).
    pub fn new(depth: usize, width: usize) -> CountMin {
        let depth = depth.max(1);
        let width = width.max(1);
        CountMin {
            depth,
            width,
            mask: width.is_power_of_two().then_some(width as u64 - 1),
            mass: 0,
            cells: vec![0; depth * width],
        }
    }

    #[inline]
    fn cell_index(&self, h: u64, row: usize) -> usize {
        // Kirsch-Mitzenmacher style: derive per-row hashes from one
        // mixed base so adds and probes stay O(depth).
        let hr = mix64(h.wrapping_add((row as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        let col = match self.mask {
            Some(mask) => hr & mask,
            None => hr % self.width as u64,
        };
        row * self.width + col as usize
    }

    /// Counts `n` occurrences of the item hashed to `h` in or out: the
    /// cells `n` single updates would reach, in one saturating step each.
    /// Deletes are strict turnstile — callers only delete previously
    /// inserted items, so saturation never engages in correct use.
    #[inline]
    pub(crate) fn update(&mut self, h: u64, n: u64, dir: Direction) {
        let step = u32::try_from(n).unwrap_or(u32::MAX);
        for row in 0..self.depth {
            let i = self.cell_index(h, row);
            self.cells[i] = dir.step_cell(self.cells[i], step);
        }
        self.mass = dir.step(self.mass, n);
    }

    /// Count-mean-min frequency estimate for the item hashed to `h`:
    /// always finite and ≥ 0.
    pub fn point(&self, h: u64) -> f64 {
        let mut min_cell = u32::MAX;
        for row in 0..self.depth {
            min_cell = min_cell.min(self.cells[self.cell_index(h, row)]);
        }
        let cell = min_cell as f64;
        if self.width <= 1 {
            return cell;
        }
        // Subtract the expected collision mass landing in this cell.
        let noise = (self.mass as f64 - cell) / (self.width as f64 - 1.0);
        (cell - noise).max(0.0)
    }

    /// Merges another sketch (cell-wise saturating sum). Panics on shape
    /// mismatch — sketches are only mergeable within one config.
    pub fn merge(&mut self, other: &CountMin) {
        assert_eq!(self.depth, other.depth, "count-min depth mismatch");
        assert_eq!(self.width, other.width, "count-min width mismatch");
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a = a.saturating_add(*b);
        }
        self.mass = self.mass.saturating_add(other.mass);
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.cells.len() * std::mem::size_of::<u32>()
    }

    /// Folds every cell into a running state digest.
    pub fn digest_into(&self, d: &mut u64) {
        *d = fold(*d, self.mass);
        for &c in &self.cells {
            *d = fold(*d, c as u64);
        }
    }
}

/// Bits consumed per dyadic level (branching factor 16).
const LEVEL_BITS: u32 = 4;
/// Levels covering the clamped 32-bit domain.
const LEVELS: usize = (32 / LEVEL_BITS) as usize;

/// A dyadic count-min over i64 values: one [`CountMin`] per 4-bit
/// prefix level of an order-preserving 32-bit mapping, so any value
/// range decomposes into O(levels × branching) point probes.
///
/// Values are saturated into the i32 range before mapping — monotone,
/// so ordering (and therefore every range query) is preserved on the
/// clamped domain; the far tails of i64 collapse onto the two boundary
/// buckets, a deliberate approximation that keeps the sketch at 8
/// levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DyadicCm {
    levels: Vec<CountMin>,
}

/// Order-preserving map from a clamped i64 to u32 (sign-flip).
#[inline]
fn map_value(v: i64) -> u32 {
    let c = v.clamp(i32::MIN as i64, i32::MAX as i64) as i32;
    (c as u32) ^ 0x8000_0000
}

/// Hash of one `(level, prefix)` cell under a column seed.
#[inline]
fn level_hash(seed: u64, level: usize, prefix: u32) -> u64 {
    mix64(seed ^ ((level as u64 + 1) << 56) ^ prefix as u64)
}

impl DyadicCm {
    /// Creates an empty dyadic sketch: `LEVELS` count-mins of
    /// `depth × width` each.
    pub fn new(depth: usize, width: usize) -> DyadicCm {
        DyadicCm {
            levels: (0..LEVELS).map(|_| CountMin::new(depth, width)).collect(),
        }
    }

    /// Opens a stream of values into (or out of) this sketch under a
    /// column seed; [`DyadicStream::finish`] completes it.
    pub(crate) fn stream(&mut self, seed: u64, dir: Direction) -> DyadicStream<'_> {
        DyadicStream {
            cm: self,
            seed,
            dir,
            last: None,
            pushed: 0,
            began: [0; LEVELS],
        }
    }

    /// Frequency estimate of the single value `v`.
    pub fn point(&self, v: i64, seed: u64) -> f64 {
        self.levels[0].point(level_hash(seed, 0, map_value(v)))
    }

    /// Estimated number of occurrences in the inclusive range
    /// `[lo, hi]` — the canonical dyadic decomposition: peel unaligned
    /// 16-block edges at each level, recurse on the aligned middle.
    pub fn range(&self, lo: i64, hi: i64, seed: u64) -> f64 {
        if lo > hi {
            return 0.0;
        }
        let mut lo = map_value(lo);
        let mut hi = map_value(hi);
        let mut total = 0.0;
        let branch = (1u32 << LEVEL_BITS) - 1; // low-bits mask
        for level in 0..LEVELS {
            if lo > hi {
                break;
            }
            let probe = |p: u32| self.levels[level].point(level_hash(seed, level, p));
            if level == LEVELS - 1 {
                // Top level: at most 16 aligned blocks remain.
                for p in lo..=hi {
                    total += probe(p);
                }
                break;
            }
            // Peel the unaligned left edge...
            while lo & branch != 0 {
                total += probe(lo);
                if lo == hi {
                    return total;
                }
                lo += 1;
            }
            // ...and the unaligned right edge.
            while hi & branch != branch {
                total += probe(hi);
                if hi == lo {
                    return total;
                }
                hi -= 1;
            }
            lo >>= LEVEL_BITS;
            hi >>= LEVEL_BITS;
        }
        total
    }

    /// Merges another sketch level-wise.
    pub fn merge(&mut self, other: &DyadicCm) {
        for (a, b) in self.levels.iter_mut().zip(&other.levels) {
            a.merge(b);
        }
    }

    /// Heap footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.levels.iter().map(CountMin::size_bytes).sum()
    }

    /// Folds every level into a running state digest.
    pub fn digest_into(&self, d: &mut u64) {
        for l in &self.levels {
            l.digest_into(d);
        }
    }
}

/// A stream of values into a [`DyadicCm`], counted in runs. Consecutive
/// values with the same prefix at a level reach the same cells there,
/// so each level is hashed once per run of its prefix and its cells
/// take the run's length in one saturating step — the state `n` single
/// updates leave. A prefix unchanged at level `L` is unchanged at every
/// level above, so a value closes runs only below the lowest level it
/// shares with the value before it.
pub(crate) struct DyadicStream<'a> {
    cm: &'a mut DyadicCm,
    seed: u64,
    dir: Direction,
    /// Mapped value of the last value pushed: every open run counts one
    /// of its prefixes.
    last: Option<u32>,
    /// Values pushed so far.
    pushed: u64,
    /// Per level, the `pushed` count at which its open run began.
    began: [u64; LEVELS],
}

impl DyadicStream<'_> {
    /// Counts one value.
    #[inline]
    pub(crate) fn push(&mut self, v: i64) {
        let u = map_value(v);
        if let Some(last) = self.last {
            // Level `l`'s prefix differs iff some bit at or above
            // `LEVEL_BITS·l` does: the levels up to the highest one.
            let changed = (32 - (u ^ last).leading_zeros()).div_ceil(LEVEL_BITS) as usize;
            for level in 0..changed {
                self.close(level, last);
                self.began[level] = self.pushed;
            }
        }
        self.last = Some(u);
        self.pushed += 1;
    }

    /// Closes every open run.
    pub(crate) fn finish(mut self) {
        if let Some(last) = self.last {
            for level in 0..LEVELS {
                self.close(level, last);
            }
        }
    }

    /// Counts the open run at `level`, whose prefix is `last`'s.
    #[inline]
    fn close(&mut self, level: usize, last: u32) {
        let prefix = last >> (LEVEL_BITS as usize * level);
        let h = level_hash(self.seed, level, prefix);
        self.cm.levels[level].update(h, self.pushed - self.began[level], self.dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Direction::{Delete, Insert};

    /// Streams `values` into `d` in one stream.
    fn stream_all(d: &mut DyadicCm, values: impl IntoIterator<Item = i64>, seed: u64) {
        let mut s = d.stream(seed, Insert);
        for v in values {
            s.push(v);
        }
        s.finish();
    }

    #[test]
    fn point_counts_are_close() {
        let mut cm = CountMin::new(2, 64);
        for v in 0..500u64 {
            for _ in 0..(v % 7 + 1) {
                cm.update(mix64(v), 1, Insert);
            }
        }
        for v in [3u64, 100, 499] {
            let truth = (v % 7 + 1) as f64;
            let e = cm.point(mix64(v));
            assert!((e - truth).abs() < 40.0, "v={v} est={e} truth={truth}");
        }
    }

    #[test]
    fn remove_undoes_add_bitwise() {
        let mut cm = CountMin::new(3, 32);
        for v in 0..200u64 {
            cm.update(mix64(v), 1, Insert);
        }
        let mut d0 = 0u64;
        cm.digest_into(&mut d0);
        for v in 200..300u64 {
            cm.update(mix64(v), 1, Insert);
        }
        for v in 200..300u64 {
            cm.update(mix64(v), 1, Delete);
        }
        let mut d1 = 0u64;
        cm.digest_into(&mut d1);
        assert_eq!(d0, d1, "delete stream did not restore the sketch");
    }

    #[test]
    fn masked_index_is_the_remainder() {
        for width in [1usize, 2, 16, 17, 32, 33, 64] {
            let cm = CountMin::new(3, width);
            assert_eq!(cm.mask.is_some(), width.is_power_of_two());
            for v in 0..200u64 {
                let h = mix64(v);
                for row in 0..3 {
                    let hr =
                        mix64(h.wrapping_add((row as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)));
                    let want = row * width + (hr % width as u64) as usize;
                    assert_eq!(cm.cell_index(h, row), want, "width {width}");
                }
            }
        }
    }

    #[test]
    fn merge_equals_interleaved_build() {
        let mut all = CountMin::new(2, 16);
        let mut a = CountMin::new(2, 16);
        let mut b = CountMin::new(2, 16);
        for v in 0..1000u64 {
            let h = mix64(v);
            all.update(h, 1, Insert);
            if v % 3 == 0 {
                a.update(h, 1, Insert);
            } else {
                b.update(h, 1, Insert);
            }
        }
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn dyadic_range_tracks_truth() {
        let mut d = DyadicCm::new(2, 32);
        let seed = 0xfeed;
        // 10k values uniform in [0, 2000).
        stream_all(
            &mut d,
            (0..10_000u64).map(|i| (mix64(i) % 2000) as i64),
            seed,
        );
        let est = d.range(0, 999, seed);
        // Half the mass, within a loose sketch tolerance.
        assert!(
            (est - 5000.0).abs() < 2500.0,
            "range estimate {est}, expected ~5000"
        );
        // Full-domain range covers everything.
        let full = d.range(i64::MIN, i64::MAX, seed);
        assert!(
            (full - 10_000.0).abs() < 2500.0,
            "full-range estimate {full}"
        );
    }

    #[test]
    fn dyadic_extreme_bounds_are_safe() {
        let mut d = DyadicCm::new(1, 8);
        let seed = 1;
        stream_all(&mut d, [i64::MIN, i64::MAX, 0, -1, 1], seed);
        for (lo, hi) in [
            (i64::MIN, i64::MAX),
            (i64::MIN, i64::MIN),
            (i64::MAX, i64::MAX),
            (5, 4),
            (-100, 100),
        ] {
            let e = d.range(lo, hi, seed);
            assert!(e.is_finite() && e >= 0.0, "[{lo}, {hi}] -> {e}");
        }
        assert_eq!(d.range(7, 3, seed), 0.0);
    }

    #[test]
    fn dyadic_empty_is_zero() {
        let d = DyadicCm::new(2, 16);
        assert_eq!(d.range(i64::MIN, i64::MAX, 9), 0.0);
        assert_eq!(d.point(42, 9), 0.0);
    }
}
